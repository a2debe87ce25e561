package experiments

import (
	"fmt"
	"io"

	"trio/internal/fpfs"
	"trio/internal/kvfs"
	"trio/internal/workload"
)

// Fig9 — the four Filebench personalities.
func Fig9(w io.Writer, p Params) error {
	type panel struct {
		personality string
		m           machine
		threads     []int
		fss         []string
	}
	threads := p.threads()
	smallThreads := threads
	if len(smallThreads) > 4 {
		smallThreads = smallThreads[:4] // the paper caps Webproxy/Varmail at 16
	}
	panels := []panel{
		{"fileserver", eightNode(), threads, []string{"ext4-raid0", "nova", "winefs", "splitfs", "odinfs", "arckfs"}},
		{"webserver", eightNode(), threads, []string{"ext4-raid0", "nova", "winefs", "splitfs", "odinfs", "arckfs"}},
		{"webproxy", eightNode(), smallThreads, []string{"ext4", "nova", "winefs", "splitfs", "odinfs", "arckfs"}},
		{"varmail", eightNode(), smallThreads, []string{"ext4", "nova", "winefs", "splitfs", "odinfs", "arckfs"}},
	}
	for _, panel := range panels {
		header(w, "fig9", fmt.Sprintf("Filebench %s (kops/s by thread count)", panel.personality))
		cols := []string{"fs"}
		for _, t := range panel.threads {
			cols = append(cols, fmt.Sprintf("t=%d", t))
		}
		var rows [][]string
		for _, name := range panel.fss {
			row := []string{name}
			for _, threads := range panel.threads {
				inst, err := p.mount(name, panel.m)
				if err != nil {
					return err
				}
				spec := workload.DefaultFilebench(panel.personality)
				spec.Threads = threads
				spec.OpsPerThread = p.ops(16)
				spec.Files = 10
				r, err := workload.RunFilebench(inst, spec)
				inst.Close()
				if err != nil {
					return fmt.Errorf("fig9 %s %s t%d: %w", panel.personality, name, threads, err)
				}
				row = append(row, fmt.Sprintf("%.1f", r.KOpsPerSec()))
			}
			rows = append(rows, row)
		}
		table(w, cols, rows)
	}
	return nil
}

// Tab5 — LevelDB db_bench (ops/ms, one thread, as in the paper).
func Tab5(w io.Writer, p Params) error {
	header(w, "tab5", "LevelDB db_bench (ops/ms)")
	fss := []string{"ext4", "nova", "winefs", "arckfs", "arckfs-nd"}
	entries := p.ops(1500)
	cols := append([]string{"workload"}, fss...)
	var rows [][]string
	for _, bench := range workload.DBBenchNames() {
		row := []string{bench}
		for _, name := range fss {
			inst, err := p.mount(name, eightNode())
			if err != nil {
				return err
			}
			r, err := workload.RunDBBench(inst, bench, workload.DBBenchSpec{Entries: entries})
			inst.Close()
			if err != nil {
				return fmt.Errorf("tab5 %s %s: %w", bench, name, err)
			}
			row = append(row, fmt.Sprintf("%.2f", r.KOpsPerSec())) // kops/s == ops/ms
		}
		rows = append(rows, row)
	}
	table(w, cols, rows)
	return nil
}

// Fig10 — the customization payoff: KVFS on the KV-extended Webproxy,
// FPFS on depth-20 Varmail, vs ArckFS and the best baselines.
func Fig10(w io.Writer, p Params) error {
	threads := 8
	if p.Quick {
		threads = 2
	}
	ops := p.ops(64)

	header(w, "fig10", "Webproxy with a key-value interface (kops/s, 8 threads)")
	{
		cols := []string{"fs", "kops/s"}
		var rows [][]string
		// KVFS: the customized small-file LibFS.
		inst, err := p.mount("arckfs", eightNode())
		if err != nil {
			return err
		}
		kv, err := kvfs.New(inst.Arck, "/kv")
		if err != nil {
			return err
		}
		r, err := workload.RunWebproxyKV(kv, "kvfs", threads, ops, 24)
		inst.Close()
		if err != nil {
			return fmt.Errorf("fig10 kvfs: %w", err)
		}
		rows = append(rows, []string{"kvfs", fmt.Sprintf("%.1f", r.KOpsPerSec())})
		// Generic file systems through the adapter.
		for _, name := range []string{"arckfs", "odinfs", "nova", "ext4"} {
			inst, err := p.mount(name, eightNode())
			if err != nil {
				return err
			}
			if err := inst.NewClient(0).Mkdir("/kv", 0o755); err != nil {
				inst.Close()
				return err
			}
			r, err := workload.RunWebproxyKV(&workload.FSStore{FS: inst, Dir: "/kv"}, name, threads, ops, 24)
			inst.Close()
			if err != nil {
				return fmt.Errorf("fig10 webproxy %s: %w", name, err)
			}
			rows = append(rows, []string{name, fmt.Sprintf("%.1f", r.KOpsPerSec())})
		}
		table(w, cols, rows)
	}

	header(w, "fig10", "Varmail with directory depth 20 (kops/s, 8 threads)")
	{
		cols := []string{"fs", "kops/s"}
		var rows [][]string
		inst, err := p.mount("arckfs", eightNode())
		if err != nil {
			return err
		}
		fp := fpfs.New(inst.Arck)
		r, err := workload.RunVarmailDeep(fp, "fpfs", threads, ops, 20)
		inst.Close()
		if err != nil {
			return fmt.Errorf("fig10 fpfs: %w", err)
		}
		rows = append(rows, []string{"fpfs", fmt.Sprintf("%.1f", r.KOpsPerSec())})
		for _, name := range []string{"arckfs", "odinfs", "nova", "ext4"} {
			inst, err := p.mount(name, eightNode())
			if err != nil {
				return err
			}
			r, err := workload.RunVarmailDeep(&workload.FSPathOps{FS: inst}, name, threads, ops, 20)
			inst.Close()
			if err != nil {
				return fmt.Errorf("fig10 varmail %s: %w", name, err)
			}
			rows = append(rows, []string{name, fmt.Sprintf("%.1f", r.KOpsPerSec())})
		}
		table(w, cols, rows)
	}
	return nil
}

// All runs every experiment in paper order.
func All(w io.Writer, p Params) error {
	steps := []struct {
		name string
		fn   func(io.Writer, Params) error
	}{
		{"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7},
		{"tab3", Tab3}, {"fig8", Fig8}, {"integrity", Integrity},
		{"fig9", Fig9}, {"tab5", Tab5}, {"fig10", Fig10},
	}
	for _, s := range steps {
		if err := s.fn(w, p); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// Registry maps experiment ids to runners (the CLI's dispatch table).
func Registry() map[string]func(io.Writer, Params) error {
	return map[string]func(io.Writer, Params) error{
		"fig5":      Fig5,
		"fig6":      Fig6,
		"fig7":      Fig7,
		"fig7-data": Fig7Data,
		"tab3":      Tab3,
		"fig8":      Fig8,
		"integrity": Integrity,
		"fig9":      Fig9,
		"tab5":      Tab5,
		"fig10":     Fig10,
		"datapath":  DataPath,
		"tenancy":   Tenancy,
		"smallops":  SmallOps,
		"serving":   Serving,
		"netchaos":  NetChaos,
		"all":       All,
	}
}
