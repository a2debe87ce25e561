// Command arckfsck is the standalone integrity-verifier tool: it builds
// a demonstration ArckFS tree on a simulated device (optionally
// injecting corruption) and runs the verifier over every file — the
// offline complement to the online per-file checks the controller
// performs on sharing (paper §4.3).
//
// Usage:
//
//	arckfsck            # build a clean tree, verify it
//	arckfsck -corrupt   # inject index-chain corruption first
//	arckfsck -scrub     # also run a full checksum scrub pass (ISSUE 5)
//	arckfsck -rot       # flip a bit in a cold data page first (media rot)
//	arckfsck -json      # machine-readable report + telemetry counters
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"trio/internal/controller"
	"trio/internal/core"
	"trio/internal/libfs"
	"trio/internal/nvm"
	"trio/internal/telemetry"
)

// jsonReport is the -json output shape: the verifier verdict plus a
// snapshot of every telemetry counter the run moved (verifier reports,
// nvm traffic, mmu checks, ...).
type jsonReport struct {
	Checked        int            `json:"checked"`
	Bad            int            `json:"bad"`
	FirstViolation string         `json:"first_violation,omitempty"`
	Consistent     bool           `json:"consistent"`
	Scrub          *jsonScrub     `json:"scrub,omitempty"`
	Telemetry      telemetry.Snap `json:"telemetry"`
}

// jsonScrub is the -scrub section of the JSON report: the pass verdict
// plus CRC coverage of the live page set.
type jsonScrub struct {
	Pages       int     `json:"pages"`
	Mismatches  int     `json:"mismatches"`
	Repaired    int     `json:"repaired"`
	Quarantined int     `json:"quarantined"`
	Candidates  int     `json:"candidates"`
	Covered     int     `json:"covered"`
	Coverage    float64 `json:"coverage"`
}

func main() {
	corrupt := flag.Bool("corrupt", false, "inject metadata corruption before checking")
	scrub := flag.Bool("scrub", false, "run a full checksum scrub pass after the verifier")
	rot := flag.Bool("rot", false, "flip one bit in a cold data page before checking (implies -scrub)")
	asJSON := flag.Bool("json", false, "emit a JSON report (verdict + telemetry counters) on stdout")
	flag.Parse()

	if *asJSON {
		telemetry.Default().Enable()
	}

	dev := nvm.MustNewDevice(nvm.Config{Nodes: 1, PagesPerNode: 8192})
	ctl, err := controller.New(dev, controller.Options{})
	if err != nil {
		fatal(err)
	}
	sess := ctl.Register(1000, 1000, 0, 0)
	fs, err := libfs.New(sess, libfs.Config{CPUs: 2})
	if err != nil {
		fatal(err)
	}
	c := fs.NewClient(0)
	if err := c.Mkdir("/projects", 0o755); err != nil {
		fatal(err)
	}
	for i := 0; i < 5; i++ {
		f, err := c.Create(fmt.Sprintf("/projects/doc-%d.txt", i), 0o644)
		if err != nil {
			fatal(err)
		}
		f.WriteAt([]byte(fmt.Sprintf("document %d contents", i)), 0)
		f.Close()
	}
	// Hand the tree to the controller: unmapping a directory verifies it
	// and adopts its children, so iterate until the whole tree is known.
	if err := sess.UnmapFile(core.RootIno); err != nil {
		fatal(err)
	}
	for prev := -1; ; {
		files := ctl.Files()
		if len(files) == prev {
			break
		}
		prev = len(files)
		for _, fi := range files {
			if fi.Type != core.TypeDir || fi.Ino == core.RootIno {
				continue
			}
			if _, err := sess.MapFile(fi.Ino, fi.Loc, true); err == nil {
				sess.UnmapFile(fi.Ino)
			}
		}
	}

	if *corrupt {
		// A "malicious LibFS": write garbage into the first file's
		// index chain through the raw device (the tool plays both
		// sides for demonstration).
		mem := core.Direct(dev, 0)
		for _, fi := range ctl.Files() {
			if fi.Type != core.TypeReg {
				continue
			}
			in, err := core.ReadDirentInode(mem, fi.Loc.Page, fi.Loc.Slot)
			if err != nil || in.Head == nvm.NilPage {
				continue
			}
			fmt.Fprintf(os.Stderr, "injecting corruption into ino %d (index page %d)\n", fi.Ino, in.Head)
			core.SetIndexEntry(mem, in.Head, 3, nvm.PageID(1<<40))
			break
		}
	}

	if *rot {
		*scrub = true
		fp := nvm.NewFaultPlan()
		dev.SetFaultPlan(fp)
		mem := core.Direct(dev, 0)
		for _, fi := range ctl.Files() {
			if fi.Type != core.TypeReg {
				continue
			}
			in, err := core.ReadDirentInode(mem, fi.Loc.Page, fi.Loc.Slot)
			if err != nil || in.Head == nvm.NilPage {
				continue
			}
			var data nvm.PageID = nvm.NilPage
			core.WalkFile(mem, in.Head, int(dev.NumPages()), nil,
				func(_ uint64, p nvm.PageID) bool { data = p; return false })
			if data == nvm.NilPage {
				continue
			}
			fmt.Fprintf(os.Stderr, "injecting bit rot into ino %d (data page %d)\n", fi.Ino, data)
			if err := fp.FlipBits(data, 42, 0x04); err != nil {
				fatal(err)
			}
			break
		}
	}

	// A device in a layout this build cannot read is refused outright
	// (core.ErrFormatVersion) — controller.New already did at mount; the
	// check here covers what the run wrote since.
	if err := core.CheckFormat(core.Direct(dev, 0), dev.NumPages()); err != nil {
		fatal(err)
	}
	checked, bad, first := ctl.VerifyAll()
	var scrubRep *jsonScrub
	if *scrub {
		r := ctl.ScrubAll()
		cov := 0.0
		if r.Candidates > 0 {
			cov = float64(r.Covered) / float64(r.Candidates)
		}
		scrubRep = &jsonScrub{
			Pages: r.Checked, Mismatches: r.Mismatches,
			Repaired: r.Repaired, Quarantined: r.Quarantined,
			Candidates: r.Candidates, Covered: r.Covered, Coverage: cov,
		}
	}
	if *asJSON {
		rep := jsonReport{
			Checked:        checked,
			Bad:            bad,
			FirstViolation: first,
			Consistent:     bad == 0,
			Scrub:          scrubRep,
			Telemetry:      telemetry.Default().Snapshot(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		if bad > 0 || (scrubRep != nil && scrubRep.Quarantined > 0) {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("arckfsck: %d files checked, %d with violations\n", checked, bad)
	if scrubRep != nil {
		fmt.Printf("scrub: %d pages audited, %d mismatches (%d repaired, %d quarantined), CRC coverage %d/%d (%.0f%%)\n",
			scrubRep.Pages, scrubRep.Mismatches, scrubRep.Repaired, scrubRep.Quarantined,
			scrubRep.Covered, scrubRep.Candidates, 100*scrubRep.Coverage)
	}
	if bad > 0 {
		fmt.Printf("first violation: %s\n", first)
		os.Exit(1)
	}
	if scrubRep != nil && scrubRep.Quarantined > 0 {
		fmt.Println("media corruption quarantined; file system metadata is consistent")
		os.Exit(1)
	}
	fmt.Println("file system is consistent")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arckfsck:", err)
	os.Exit(1)
}
