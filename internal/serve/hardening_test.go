// Regression tests for the wire-facing hardening fixes: unknown-proc
// frames, DRC xid collisions, READDIR pagination, and handle-table
// bounding/rename behavior.
package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"trio/internal/fsapi"
)

// TestUnknownProcRejected: a frame whose op byte is past the proc table
// must answer StatusBadProc and leave the connection healthy. (It used
// to be dispatched and index a fixed-size per-proc telemetry array with
// the raw wire byte — a one-frame remote panic.)
func TestUnknownProcRejected(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	rc := dialRaw(t, lb.Server(), 99)
	defer rc.rw.Close()

	for _, op := range []uint8{uint8(procCount), uint8(procCount) + 1, 42, 0xFF} {
		if st, _ := rc.rpc(1000+uint32(op), Proc(op), nil); st != StatusBadProc {
			t.Fatalf("op %d: status %d, want StatusBadProc", op, st)
		}
	}
	// The connection survived: real requests still work.
	if st, _ := rc.rpc(2000, ProcNull, nil); st != StatusOK {
		t.Fatalf("null after bad proc: %d", st)
	}
}

// TestDRCXidReuseExecutes: the DRC key (clientID, xid) outlives
// connections, but a NEW request that reuses a cached xid — e.g. after
// a reconnect restarted the client's xid space — must execute, not
// replay the old verdict. Only a true retransmission (identical request
// bytes) replays.
func TestDRCXidReuseExecutes(t *testing.T) {
	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	srv := lb.Server()
	rootB := AppendHandle(nil, srv.Root())

	rc := dialRaw(t, srv, 55)
	defer rc.rw.Close()

	st, body := rc.rpc(5, ProcCreate, append(appendU16(append([]byte{}, rootB...), 0o644), AppendString(nil, "log")...))
	if st != StatusOK {
		t.Fatalf("create: %d", st)
	}
	d := NewDec(body)
	h := d.Handle()
	appendReq := func(payload string) []byte {
		return AppendBytes(AppendHandle(nil, h), []byte(payload))
	}

	st, body = rc.rpc(9, ProcAppend, appendReq("aaaa"))
	if st != StatusOK {
		t.Fatalf("append aaaa: %d", st)
	}
	d = NewDec(body)
	if at := d.U64(); at != 0 {
		t.Fatalf("append aaaa landed at %d, want 0", at)
	}

	// Same xid, DIFFERENT request bytes: an xid collision, not a
	// retransmission — it must execute and land after the first append.
	st, body = rc.rpc(9, ProcAppend, appendReq("bbbb"))
	if st != StatusOK {
		t.Fatalf("append bbbb (xid reuse): %d", st)
	}
	d = NewDec(body)
	if at := d.U64(); at != 4 {
		t.Fatalf("append bbbb landed at %d, want 4 (replayed the stale cached reply?)", at)
	}

	// Same xid, SAME bytes: a true retransmission — replays offset 4
	// and must not apply a third time.
	st, body = rc.rpc(9, ProcAppend, appendReq("bbbb"))
	if st != StatusOK {
		t.Fatalf("retransmitted append: %d", st)
	}
	d = NewDec(body)
	if at := d.U64(); at != 4 {
		t.Fatalf("retransmitted append landed at %d, want cached 4", at)
	}
	st, body = rc.rpc(10, ProcGetattr, AppendHandle(nil, h))
	if st != StatusOK {
		t.Fatalf("getattr: %d", st)
	}
	d = NewDec(body)
	if a := d.Attr(); a.Size != 8 {
		t.Fatalf("size %d, want 8 (xid-colliding append double- or under-applied)", a.Size)
	}

	// The reconnect shape of the same bug: a fresh connection with the
	// same client id reuses xid 5 (CREATE "log" above) for a different
	// CREATE — it must make the new file, not replay "log"'s reply.
	rc2 := dialRaw(t, srv, 55)
	defer rc2.rw.Close()
	st, _ = rc2.rpc(5, ProcCreate, append(appendU16(append([]byte{}, rootB...), 0o644), AppendString(nil, "other")...))
	if st != StatusOK {
		t.Fatalf("create other after reconnect: %d", st)
	}
	lookup := append(append([]byte{}, rootB...), AppendString(nil, "other")...)
	if st, _ = rc2.rpc(6, ProcLookup, lookup); st != StatusOK {
		t.Fatalf("lookup other: %d — the reconnect CREATE was swallowed by a cached reply", st)
	}
}

// TestReaddirPagination: a directory whose listing exceeds one page
// must arrive complete across several bounded reply frames. (It used to
// be encoded into a single frame that could exceed MaxFrame, which the
// peer rejects — tearing down the connection.)
func TestReaddirPagination(t *testing.T) {
	old := maxDirPayload
	maxDirPayload = 64 // a handful of entries per page
	defer func() { maxDirPayload = old }()

	lb := mountLoopback(t, "arckfs", Options{})
	defer lb.Close()
	conn, ctx := lb.sess, context.Background()

	const entries = 40
	want := make(map[string]bool, entries)
	for i := 0; i < entries; i++ {
		name := fmt.Sprintf("entry-%02d", i)
		if _, _, err := conn.Create(ctx, conn.Root(), name, 0o644); err != nil {
			t.Fatal(err)
		}
		want[name] = true
	}
	names, err := conn.Readdir(ctx, conn.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != entries {
		t.Fatalf("listed %d entries, want %d: %v", len(names), entries, names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected or duplicated entry %q", n)
		}
		delete(want, n)
	}
}

// TestHandleTabBounded: the fallback handle→path table is a bounded
// LRU. Minting past the cap evicts the oldest entry — which then
// legitimately answers ErrStale — instead of growing without bound; the
// root handle is pinned and keeps resolving.
func TestHandleTabBounded(t *testing.T) {
	const cap = 8
	lb := mountLoopback(t, "nova", Options{HandleCap: cap})
	defer lb.Close()
	conn, ctx := lb.sess, context.Background()

	first, _, err := conn.Create(ctx, conn.Root(), "first", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*cap; i++ {
		if _, _, err := conn.Create(ctx, conn.Root(), fmt.Sprintf("churn-%02d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tab := lb.Server().tab
	tab.mu.Lock()
	n := tab.lru.Len()
	tab.mu.Unlock()
	if n > cap {
		t.Fatalf("table holds %d entries, cap %d", n, cap)
	}
	if _, err := conn.Getattr(ctx, first); !errors.Is(err, fsapi.ErrStale) {
		t.Fatalf("evicted handle: %v, want ErrStale", err)
	}
	// The pinned root survived the churn.
	if _, err := conn.Readdir(ctx, conn.Root()); err != nil {
		t.Fatalf("root after churn: %v", err)
	}
	// And a re-LOOKUP recovers the evicted file, as NFS clients do.
	if _, _, err := conn.Lookup(ctx, conn.Root(), "first"); err != nil {
		t.Fatalf("re-lookup after eviction: %v", err)
	}
}

// TestRenameDirKeepsDescendants: renaming a directory must keep
// already-minted handles BENEATH it valid — the table rewrites the
// recorded path prefix of every descendant, in both handle regimes.
func TestRenameDirKeepsDescendants(t *testing.T) {
	for _, name := range []string{"arckfs", "nova"} {
		t.Run(name, func(t *testing.T) {
			lb := mountLoopback(t, name, Options{})
			defer lb.Close()
			conn, ctx := lb.sess, context.Background()

			dirH, _, err := conn.Mkdir(ctx, conn.Root(), "olddir", 0o755)
			if err != nil {
				t.Fatal(err)
			}
			subH, _, err := conn.Mkdir(ctx, dirH, "sub", 0o755)
			if err != nil {
				t.Fatal(err)
			}
			fileH, _, err := conn.Create(ctx, subH, "f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(ctx, fileH, 0, []byte("deep")); err != nil {
				t.Fatal(err)
			}

			if err := conn.Rename(ctx, conn.Root(), "olddir", conn.Root(), "newdir"); err != nil {
				t.Fatal(err)
			}

			// Descendant directory handle still serves namespace ops.
			if _, _, err := conn.Lookup(ctx, subH, "f"); err != nil {
				t.Fatalf("lookup through descendant dir handle: %v", err)
			}
			names, err := conn.Readdir(ctx, dirH)
			if err != nil || len(names) != 1 || names[0] != "sub" {
				t.Fatalf("readdir renamed dir handle: %v %v", names, err)
			}
			// Descendant file handle still reads.
			got := make([]byte, 4)
			if _, err := conn.Read(ctx, fileH, 0, got); err != nil {
				t.Fatalf("read through descendant file handle: %v", err)
			}
			if string(got) != "deep" {
				t.Fatalf("content %q, want %q", got, "deep")
			}
			// And new entries still land under the descendant handle.
			if _, _, err := conn.Create(ctx, subH, "g", 0o644); err != nil {
				t.Fatalf("create under descendant dir handle: %v", err)
			}
		})
	}
}
