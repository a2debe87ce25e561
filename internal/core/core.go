// Package core defines Trio's core state (paper §3.2, §4.1): the single,
// explicitly specified on-NVM data layout that every component — each
// LibFS, the kernel controller, and the integrity verifier — shares as
// common knowledge. A LibFS may design arbitrary private auxiliary state
// (caches, indexes, locks) but can never change the core state's data
// structures; that is what lets a different LibFS rebuild its own
// auxiliary state from the same bytes, and what lets the verifier check
// a file it did not write.
//
// Layout (all little-endian, page size 4096):
//
//	page 0           superblock (magic, Version, geometry)
//	page 1           the root directory's inode
//	file pages       inodes, index pages and data pages of files
//	last pages       the checksum region (checksum.go)
//
// A regular file is a chain of index pages whose entries point to data
// pages (paper Fig. 4). A directory is a chain of index pages whose
// entries point to directory data pages holding fixed-size 256-byte
// entry slots; each slot co-locates a file's inode with its name so
// that create/delete/stat need only the parent directory's pages
// mapped (§4.1). The core state holds no "." or ".." entries, no
// allocation bitmaps, no free lists and no locks — all of that is
// auxiliary state, rebuilt privately by whichever LibFS maps the file.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"trio/internal/nvm"
)

// Ino is an inode number. Ino 0 is invalid — a directory-entry slot
// whose inode number reads 0 is free, which is the basis of the
// 8-byte-atomic create/delete commit protocol (§4.4).
type Ino uint64

// RootIno is the inode number of the root directory.
const RootIno Ino = 1

// FileType discriminates core-state file objects.
type FileType uint8

const (
	// TypeFree marks an empty dirent slot (only ever seen as the type
	// byte of a slot whose ino is 0).
	TypeFree FileType = 0
	// TypeReg is a regular file.
	TypeReg FileType = 1
	// TypeDir is a directory.
	TypeDir FileType = 2
)

func (t FileType) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeReg:
		return "reg"
	case TypeDir:
		return "dir"
	}
	return fmt.Sprintf("FileType(%d)", uint8(t))
}

// Geometry constants of the core state.
const (
	// InodeSize is the on-NVM inode footprint.
	InodeSize = 64
	// DirentSize is the size of one directory-entry slot (inode +
	// name). 16 slots fit one page.
	DirentSize = 256
	// SlotsPerDirPage is the dirent capacity of one directory data page.
	SlotsPerDirPage = nvm.PageSize / DirentSize
	// MaxNameLen bounds file names (DirentSize - InodeSize - 2 length bytes).
	MaxNameLen = DirentSize - InodeSize - 2
	// IndexEntriesPerPage is the number of data-page pointers per index
	// page; the final 8-byte entry links to the next index page.
	IndexEntriesPerPage = nvm.PageSize/8 - 1
	// SuperMagic identifies a formatted device.
	SuperMagic = 0x4f49525441434b46 // "FKCATRIO" little-endian view of "TRIOARCK"-ish
	// Version of the core-state layout, checked at mount (CheckFormat).
	Version = 2
	// RootInodePage holds the root directory's inode in its slot 0.
	// The root has no parent directory to co-locate its dirent with, so
	// it gets a dedicated page (its "name" field is empty). Page 0 (the
	// superblock) stays read-only for every LibFS, while this page can
	// be write-mapped like any other dirent page.
	RootInodePage nvm.PageID = 1
	// FirstFilePage is where allocatable file pages begin.
	FirstFilePage nvm.PageID = 2
)

// Inode field offsets within its 64 bytes.
const (
	inoOff   = 0
	typeOff  = 8
	modeOff  = 10
	uidOff   = 12
	gidOff   = 16
	sizeOff  = 24
	headOff  = 32
	mtimeOff = 40
	ctimeOff = 48
	atimeOff = 56
)

// Dirent field offsets within its 256 bytes.
const (
	// DirentInodeOff: the embedded inode starts the slot, so the
	// atomic-commit ino field is the slot's first 8 bytes.
	DirentInodeOff   = 0
	DirentNameLenOff = InodeSize
	DirentNameOff    = InodeSize + 2
)

// Inode is the decoded form of an on-NVM inode.
type Inode struct {
	Ino   Ino
	Type  FileType
	Mode  uint16
	UID   uint32
	GID   uint32
	Size  uint64
	Head  nvm.PageID // first index page, NilPage when none
	Mtime uint64     // unix nanoseconds
	Ctime uint64
	Atime uint64
}

// EncodeInode writes the inode into b, which must hold InodeSize bytes.
func EncodeInode(b []byte, in *Inode) {
	_ = b[InodeSize-1]
	binary.LittleEndian.PutUint64(b[inoOff:], uint64(in.Ino))
	b[typeOff] = byte(in.Type)
	b[typeOff+1] = 0
	binary.LittleEndian.PutUint16(b[modeOff:], in.Mode)
	binary.LittleEndian.PutUint32(b[uidOff:], in.UID)
	binary.LittleEndian.PutUint32(b[gidOff:], in.GID)
	binary.LittleEndian.PutUint32(b[gidOff+4:], 0)
	binary.LittleEndian.PutUint64(b[sizeOff:], in.Size)
	binary.LittleEndian.PutUint64(b[headOff:], uint64(in.Head))
	binary.LittleEndian.PutUint64(b[mtimeOff:], in.Mtime)
	binary.LittleEndian.PutUint64(b[ctimeOff:], in.Ctime)
	binary.LittleEndian.PutUint64(b[atimeOff:], in.Atime)
}

// DecodeInode parses an inode from b, which must hold InodeSize bytes.
func DecodeInode(b []byte) Inode {
	_ = b[InodeSize-1]
	return Inode{
		Ino:   Ino(binary.LittleEndian.Uint64(b[inoOff:])),
		Type:  FileType(b[typeOff]),
		Mode:  binary.LittleEndian.Uint16(b[modeOff:]),
		UID:   binary.LittleEndian.Uint32(b[uidOff:]),
		GID:   binary.LittleEndian.Uint32(b[gidOff:]),
		Size:  binary.LittleEndian.Uint64(b[sizeOff:]),
		Head:  nvm.PageID(binary.LittleEndian.Uint64(b[headOff:])),
		Mtime: binary.LittleEndian.Uint64(b[mtimeOff:]),
		Ctime: binary.LittleEndian.Uint64(b[ctimeOff:]),
		Atime: binary.LittleEndian.Uint64(b[atimeOff:]),
	}
}

// ValidateName reports whether a file name is legal in the core state:
// non-empty, at most MaxNameLen bytes, no "/", no NUL, and not the
// reserved "." / ".." (which the core state deliberately does not store,
// §4.1 — LibFSes synthesize them in auxiliary state).
func ValidateName(name string) error {
	switch {
	case name == "":
		return errors.New("core: empty file name")
	case len(name) > MaxNameLen:
		return fmt.Errorf("core: name longer than %d bytes", MaxNameLen)
	case name == "." || name == "..":
		return fmt.Errorf("core: reserved name %q", name)
	case strings.ContainsAny(name, "/\x00"):
		return fmt.Errorf("core: name %q contains '/' or NUL", name)
	}
	return nil
}

// ValidateNameBytes is ValidateName for a name still sitting in a read
// buffer (see ReadDirentInto) — validation without the string copy.
func ValidateNameBytes(name []byte) error {
	switch {
	case len(name) == 0:
		return errors.New("core: empty file name")
	case len(name) > MaxNameLen:
		return fmt.Errorf("core: name longer than %d bytes", MaxNameLen)
	case string(name) == "." || string(name) == "..":
		return fmt.Errorf("core: reserved name %q", name)
	case bytes.ContainsAny(name, "/\x00"):
		return fmt.Errorf("core: name %q contains '/' or NUL", name)
	}
	return nil
}

// Mem abstracts how a component reaches the core state's bytes. An
// untrusted LibFS uses an mmu.AddressSpace (permission-checked); the
// trusted controller and verifier use Direct access to the device.
type Mem interface {
	Read(p nvm.PageID, off int, buf []byte) error
	Write(p nvm.PageID, off int, data []byte) error
	ReadU64(p nvm.PageID, off int) (uint64, error)
	WriteU64(p nvm.PageID, off int, v uint64) error
	Persist(p nvm.PageID, off, n int) error
	Fence()
}

// direct is the trusted Mem: raw device access with no permission checks.
type direct struct {
	dev  *nvm.Device
	node int
}

// Direct returns a Mem giving trusted, unchecked access to the device
// from a CPU on the given NUMA node.
func Direct(dev *nvm.Device, node int) Mem { return &direct{dev: dev, node: node} }

func (d *direct) Read(p nvm.PageID, off int, buf []byte) error {
	return d.dev.ReadAt(d.node, p, off, buf)
}
func (d *direct) Write(p nvm.PageID, off int, data []byte) error {
	return d.dev.WriteAt(d.node, p, off, data)
}
func (d *direct) ReadU64(p nvm.PageID, off int) (uint64, error) {
	var b [8]byte
	if err := d.dev.ReadAt(d.node, p, off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
func (d *direct) WriteU64(p nvm.PageID, off int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return d.dev.WriteAt(d.node, p, off, b[:])
}
func (d *direct) Persist(p nvm.PageID, off, n int) error {
	return d.dev.Persist(p, off, n)
}
func (d *direct) Fence() { d.dev.Fence() }

// ReadInode reads the inode at (page, off).
func ReadInode(m Mem, p nvm.PageID, off int) (Inode, error) {
	var b [InodeSize]byte
	if err := m.Read(p, off, b[:]); err != nil {
		return Inode{}, err
	}
	return DecodeInode(b[:]), nil
}

// WriteInode writes the inode at (page, off) and persists it. It writes
// the whole 64 bytes including the ino commit field; callers needing
// ordered commit semantics use WriteInodeBody + commit of the ino field.
func WriteInode(m Mem, p nvm.PageID, off int, in *Inode) error {
	var b [InodeSize]byte
	EncodeInode(b[:], in)
	if err := m.Write(p, off, b[:]); err != nil {
		return err
	}
	return m.Persist(p, off, InodeSize)
}

// WriteInodeBody writes every inode field except the ino commit word
// (bytes 8..64) and persists them. Combined with a later atomic write of
// the ino word this gives crash-atomic inode initialization (§4.4).
func WriteInodeBody(m Mem, p nvm.PageID, off int, in *Inode) error {
	var b [InodeSize]byte
	EncodeInode(b[:], in)
	if err := m.Write(p, off+8, b[8:]); err != nil {
		return err
	}
	return m.Persist(p, off+8, InodeSize-8)
}

// WriteDirentBody installs a dirent's inode body and name with one
// contiguous store span — a single Write + Persist covering everything
// but the 8-byte ino commit word, which CommitDirentIno stores after the
// caller's fence. Equivalent to WriteInodeBody + WriteDirentName but
// half the media operations; the caller supplies the staging buffer so
// small-op streams stay allocation-free.
func WriteDirentBody(m Mem, p nvm.PageID, slot int, name string, in *Inode, b *[DirentSize]byte) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	EncodeInode(b[:], in)
	end := DirentNameLenOff + EncodeDirentName(b[DirentNameLenOff:], name)
	off := SlotOffset(slot)
	if err := m.Write(p, off+8, b[8:end]); err != nil {
		return err
	}
	return m.Persist(p, off+8, end-8)
}

// SlotOffset returns the byte offset of dirent slot i in its page.
func SlotOffset(slot int) int { return slot * DirentSize }

// UpdateInodeSizeMtime updates the size and mtime fields of the inode at
// loc with one persisted store pair. The fields are adjacent, so the
// persist covers one region; an 8-byte size store is atomic, giving the
// ordered-update crash consistency the write path needs (§4.4).
func UpdateInodeSizeMtime(m Mem, loc FileLoc, size, mtime uint64) error {
	base := SlotOffset(loc.Slot)
	if err := m.WriteU64(loc.Page, base+sizeOff, size); err != nil {
		return err
	}
	if err := m.WriteU64(loc.Page, base+mtimeOff, mtime); err != nil {
		return err
	}
	if err := m.Persist(loc.Page, base+sizeOff, mtimeOff-sizeOff+8); err != nil {
		return err
	}
	m.Fence()
	return nil
}

// UpdateInodeHead updates the head index-page pointer of the inode at
// loc (atomically: single 8-byte store).
func UpdateInodeHead(m Mem, loc FileLoc, head nvm.PageID) error {
	base := SlotOffset(loc.Slot)
	if err := m.WriteU64(loc.Page, base+headOff, uint64(head)); err != nil {
		return err
	}
	if err := m.Persist(loc.Page, base+headOff, 8); err != nil {
		return err
	}
	m.Fence()
	return nil
}

// ReadDirentName reads the name stored in dirent slot `slot` of page p.
func ReadDirentName(m Mem, p nvm.PageID, slot int) (string, error) {
	off := SlotOffset(slot)
	var lenb [2]byte
	if err := m.Read(p, off+DirentNameLenOff, lenb[:]); err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(lenb[:]))
	if n == 0 {
		return "", nil
	}
	if n > MaxNameLen {
		return "", fmt.Errorf("core: dirent name length %d exceeds max %d", n, MaxNameLen)
	}
	buf := make([]byte, n)
	if err := m.Read(p, off+DirentNameOff, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// EncodeDirentName writes a slot's name field (length + bytes) into b,
// which must hold 2+len(name) bytes, and returns the encoded length.
func EncodeDirentName(b []byte, name string) int {
	binary.LittleEndian.PutUint16(b, uint16(len(name)))
	return 2 + copy(b[2:], name)
}

// WriteDirentName writes the name field (length + bytes) of a slot and
// persists it. It does not touch the inode area.
func WriteDirentName(m Mem, p nvm.PageID, slot int, name string) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	off := SlotOffset(slot)
	buf := make([]byte, 2+len(name))
	EncodeDirentName(buf, name)
	if err := m.Write(p, off+DirentNameLenOff, buf); err != nil {
		return err
	}
	return m.Persist(p, off+DirentNameLenOff, len(buf))
}

// ReadDirentInode reads the inode embedded in dirent slot `slot`.
func ReadDirentInode(m Mem, p nvm.PageID, slot int) (Inode, error) {
	return ReadInode(m, p, SlotOffset(slot)+DirentInodeOff)
}

// ErrBadNameLen reports a dirent whose stored name length exceeds the
// format maximum. ReadDirentInto still returns the decoded inode
// alongside it — the name bytes are corrupt, the inode area may not be.
var ErrBadNameLen = errors.New("core: dirent name length exceeds max")

// ReadDirentInto reads a whole dirent slot — embedded inode plus name —
// in a single media access, through a caller-owned buffer. The
// per-access latency of NVM reads dominates their bandwidth at this
// size, so paths that need both fields (the verifier checks every
// mapping twice) pay one charge instead of three. The returned name
// aliases b (no copy), which keeps the per-read buffer off the heap.
func ReadDirentInto(m Mem, p nvm.PageID, slot int, b *[DirentSize]byte) (Inode, []byte, error) {
	if err := m.Read(p, SlotOffset(slot), b[:]); err != nil {
		return Inode{}, nil, err
	}
	in := DecodeInode(b[DirentInodeOff:])
	n := int(binary.LittleEndian.Uint16(b[DirentNameLenOff:]))
	if n == 0 {
		return in, nil, nil
	}
	if n > MaxNameLen {
		return in, nil, ErrBadNameLen
	}
	return in, b[DirentNameOff : DirentNameOff+n], nil
}

// DirentIno reads just the 8-byte commit word of a slot — the cheap
// "is this slot live" probe.
func DirentIno(m Mem, p nvm.PageID, slot int) (Ino, error) {
	v, err := m.ReadU64(p, SlotOffset(slot)+DirentInodeOff)
	return Ino(v), err
}

// CommitDirentIno atomically publishes (or, with ino 0, retires) a
// dirent slot by writing its ino word, persisting and fencing. This is
// the 8-byte-atomic commit point of create/unlink (§4.4).
func CommitDirentIno(m Mem, p nvm.PageID, slot int, ino Ino) error {
	off := SlotOffset(slot) + DirentInodeOff
	if err := m.WriteU64(p, off, uint64(ino)); err != nil {
		return err
	}
	if err := m.Persist(p, off, 8); err != nil {
		return err
	}
	m.Fence()
	return nil
}

// IndexEntry reads entry i of index page p (a data-page pointer).
func IndexEntry(m Mem, p nvm.PageID, i int) (nvm.PageID, error) {
	if i < 0 || i >= IndexEntriesPerPage {
		return 0, fmt.Errorf("core: index entry %d out of range", i)
	}
	v, err := m.ReadU64(p, i*8)
	return nvm.PageID(v), err
}

// SetIndexEntry writes entry i of index page p and persists it.
func SetIndexEntry(m Mem, p nvm.PageID, i int, data nvm.PageID) error {
	if i < 0 || i >= IndexEntriesPerPage {
		return fmt.Errorf("core: index entry %d out of range", i)
	}
	if err := m.WriteU64(p, i*8, uint64(data)); err != nil {
		return err
	}
	return m.Persist(p, i*8, 8)
}

// NextIndexPage reads the chain link of index page p.
func NextIndexPage(m Mem, p nvm.PageID) (nvm.PageID, error) {
	v, err := m.ReadU64(p, IndexEntriesPerPage*8)
	return nvm.PageID(v), err
}

// SetNextIndexPage writes the chain link of index page p and persists it.
func SetNextIndexPage(m Mem, p nvm.PageID, next nvm.PageID) error {
	if err := m.WriteU64(p, IndexEntriesPerPage*8, uint64(next)); err != nil {
		return err
	}
	return m.Persist(p, IndexEntriesPerPage*8, 8)
}

// FilePages enumerates the index and data pages reachable from an
// inode's head pointer. maxPages bounds the walk so that a corrupted
// (cyclic) chain terminates; the walk returns ErrChainTooLong when the
// bound is hit, which the verifier treats as an I2 violation.
var ErrChainTooLong = errors.New("core: index chain exceeds page budget (cycle?)")

// WalkFile calls indexFn for each index page and dataFn for each live
// data-page entry (with its file block number). Either callback may be
// nil. The callbacks return false to stop the walk early.
//
// Each index page is read with a single whole-page access: hardware
// streams a 4 KiB scan at bandwidth, so charging one access per 8-byte
// entry would overstate the cost of every walk (mapping, unlinking,
// auxiliary-state rebuild, verification) by two orders of magnitude.
func WalkFile(m Mem, head nvm.PageID, maxPages int,
	indexFn func(p nvm.PageID) bool,
	dataFn func(block uint64, p nvm.PageID) bool) error {
	if head == nvm.NilPage {
		// Empty file: nothing to walk, and the small-op fast paths, which
		// walk empty files constantly, never touch the buffer pool.
		return nil
	}
	seen := 0
	block := uint64(0)
	// The page buffer escapes through m.Read, and walks come in bursts (a
	// handover nobody can vouch for walks its file four times: grant,
	// checkpoint, rebuild, verify), so the buffers are recycled rather
	// than allocated.
	buf := walkBufPool.Get().(*[nvm.PageSize]byte)
	defer walkBufPool.Put(buf)
	for p := head; p != nvm.NilPage; {
		seen++
		if seen > maxPages {
			return ErrChainTooLong
		}
		if indexFn != nil && !indexFn(p) {
			return nil
		}
		if err := m.Read(p, 0, buf[:]); err != nil {
			return err
		}
		for i := 0; i < IndexEntriesPerPage; i++ {
			d := nvm.PageID(binary.LittleEndian.Uint64(buf[i*8:]))
			if d != nvm.NilPage {
				if dataFn != nil && !dataFn(block, d) {
					return nil
				}
			}
			block++
		}
		p = nvm.PageID(binary.LittleEndian.Uint64(buf[IndexEntriesPerPage*8:]))
	}
	return nil
}

var walkBufPool = sync.Pool{New: func() any { return new([nvm.PageSize]byte) }}

// DirPage is one whole directory data page read in a single access, with
// slot decoders — the bulk-scan counterpart of the per-slot accessors,
// used by everything that enumerates directories (auxiliary-state
// rebuild, verification, adoption, emptiness checks).
type DirPage struct {
	buf [nvm.PageSize]byte
}

// ReadDirPage fetches page p wholesale.
func ReadDirPage(m Mem, p nvm.PageID) (*DirPage, error) {
	dp := &DirPage{}
	if err := m.Read(p, 0, dp.buf[:]); err != nil {
		return nil, err
	}
	return dp, nil
}

// SlotIno returns the commit word of slot i.
func (d *DirPage) SlotIno(slot int) Ino {
	return Ino(binary.LittleEndian.Uint64(d.buf[SlotOffset(slot):]))
}

// SlotInode decodes the inode embedded in slot i.
func (d *DirPage) SlotInode(slot int) Inode {
	return DecodeInode(d.buf[SlotOffset(slot) : SlotOffset(slot)+InodeSize])
}

// SlotName returns the name stored in slot i.
func (d *DirPage) SlotName(slot int) (string, error) {
	off := SlotOffset(slot)
	n := int(binary.LittleEndian.Uint16(d.buf[off+DirentNameLenOff:]))
	if n == 0 {
		return "", nil
	}
	if n > MaxNameLen {
		return "", fmt.Errorf("core: dirent name length %d exceeds max %d", n, MaxNameLen)
	}
	return string(d.buf[off+DirentNameOff : off+DirentNameOff+n]), nil
}

// Superblock is the decoded page-0 header.
type Superblock struct {
	Magic      uint64
	Version    uint64
	TotalPages uint64
	Nodes      uint64
}

// ErrUnformatted reports a device whose page 0 holds no superblock: a
// blank device, which a mount formats.
var ErrUnformatted = errors.New("core: bad superblock magic (device not formatted?)")

// ErrFormatVersion reports a formatted device in a layout this build does
// not read — another superblock version, or a checksum region with the
// wrong magic, version or granule size. Nothing may mount it.
var ErrFormatVersion = errors.New("core: unsupported on-media format")

// ReadSuperblock decodes page 0: ErrUnformatted without the magic,
// ErrFormatVersion with a version other than Version.
func ReadSuperblock(m Mem) (Superblock, error) {
	var b [32]byte
	if err := m.Read(0, 0, b[:]); err != nil {
		return Superblock{}, err
	}
	sb := Superblock{
		Magic:      binary.LittleEndian.Uint64(b[0:]),
		Version:    binary.LittleEndian.Uint64(b[8:]),
		TotalPages: binary.LittleEndian.Uint64(b[16:]),
		Nodes:      binary.LittleEndian.Uint64(b[24:]),
	}
	switch {
	case sb.Magic != SuperMagic:
		return sb, ErrUnformatted
	case sb.Version != Version:
		return sb, fmt.Errorf("%w: superblock version %d, this build reads %d", ErrFormatVersion, sb.Version, Version)
	}
	return sb, nil
}

// CheckFormat validates everything a mount reads before trusting the
// device: the superblock (ReadSuperblock's errors) and the checksum
// region's header (ErrFormatVersion).
func CheckFormat(m Mem, total nvm.PageID) error {
	if _, err := ReadSuperblock(m); err != nil {
		return err
	}
	return checkChecksumHeader(m, total)
}

// Format initializes a device with an empty file system: a superblock,
// an empty root directory owned by uid/gid 0 with mode 0o777, and the
// checksum region's header.
func Format(dev *nvm.Device) error {
	m := Direct(dev, 0)
	var b [32]byte
	binary.LittleEndian.PutUint64(b[0:], SuperMagic)
	binary.LittleEndian.PutUint64(b[8:], Version)
	binary.LittleEndian.PutUint64(b[16:], uint64(dev.NumPages()))
	binary.LittleEndian.PutUint64(b[24:], uint64(dev.Nodes()))
	if err := m.Write(0, 0, b[:]); err != nil {
		return err
	}
	if err := m.Persist(0, 0, len(b)); err != nil {
		return err
	}
	root := Inode{Ino: RootIno, Type: TypeDir, Mode: 0o777}
	if err := WriteInode(m, RootInodePage, SlotOffset(0), &root); err != nil {
		return err
	}
	if err := writeChecksumHeader(m, dev.NumPages()); err != nil {
		return err
	}
	m.Fence()
	return nil
}

// FileLoc names where a file's inode lives in the core state: a dirent
// slot of its parent directory (or the dedicated root inode page).
type FileLoc struct {
	Page nvm.PageID
	Slot int
}

// RootLoc is the location of the root directory's inode.
func RootLoc() FileLoc { return FileLoc{Page: RootInodePage, Slot: 0} }
