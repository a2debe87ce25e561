package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchFile is the checked-in BENCH_trio.json every experiment writes
// its section of.
const benchFile = "../../BENCH_trio.json"

// sectionTypes are the report types of the sections keyed by one name;
// the datapath section is the file's remaining top-level keys.
func sectionTypes() map[string]any {
	return map[string]any{
		"tenancy":  &TenancyReport{},
		"smallops": &SmallOpsReport{},
		"serving":  &ServingReport{},
		"netchaos": &NetChaosReport{},
	}
}

// jsonValue decodes data into a generic JSON value.
func jsonValue(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// encode marshals v and decodes it back into a generic JSON value.
func encode(t *testing.T, v any) map[string]any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return jsonValue(t, data)
}

// TestBenchSchemaRoundTrip decodes the checked-in BENCH_trio.json
// through the report types, section by section, and encodes it again:
// the result must equal the file as JSON values (key order aside), so
// the types hold every field the file does.
func TestBenchSchemaRoundTrip(t *testing.T) {
	data, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var dp DataPathReport
	if err := json.Unmarshal(data, &dp); err != nil {
		t.Fatal(err)
	}
	got := encode(t, &dp)
	for key, rep := range sectionTypes() {
		raw, ok := doc[key]
		if !ok {
			t.Fatalf("%s has no %q section", benchFile, key)
		}
		if err := json.Unmarshal(raw, rep); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = encode(t, rep)
	}
	want := jsonValue(t, data)
	for key := range want {
		if !reflect.DeepEqual(got[key], want[key]) {
			t.Errorf("section %q does not round-trip:\n got %v\nwant %v", key, got[key], want[key])
		}
	}
	if len(got) != len(want) {
		t.Errorf("round trip has %d top-level keys, the file %d", len(got), len(want))
	}
}

// TestMergeBenchKeepsOtherSections merges fresh sections into a copy of
// BENCH_trio.json: each merge replaces exactly the keys its section
// owns, and every other section stays equal to the file's.
func TestMergeBenchKeepsOtherSections(t *testing.T) {
	data, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_trio.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	serving := owned("serving", &ServingReport{FS: "arckfs", Depth: 8, Quick: true, ServingPair: ServingPair{SpeedupX: 9}})
	datapath := &Outcome{Section: &DataPathReport{Schema: "trio-bench/datapath/v1", Go: "go-test",
		Results: []DataPathResult{{FS: "arckfs", Workload: "stat", Ops: 1, AllocsPerOp: 2}}}}
	for _, out := range []*Outcome{serving, datapath} {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := MergeBench(path, out.Section); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fresh, old, now := encode(t, out.Section), jsonValue(t, before), jsonValue(t, after)
		for key, v := range now {
			want, ok := fresh[key]
			if !ok {
				want = old[key]
			}
			if !reflect.DeepEqual(v, want) {
				t.Errorf("after merging %v, key %q = %v, want %v", reflect.TypeOf(out.Section), key, v, want)
			}
		}
		for key := range old {
			if _, ok := now[key]; !ok {
				t.Errorf("merge dropped key %q", key)
			}
		}
	}

	// A missing or empty file starts a new one holding just the section.
	for _, seed := range []*[]byte{nil, {}} {
		fresh := filepath.Join(t.TempDir(), "new.json")
		if seed != nil {
			if err := os.WriteFile(fresh, *seed, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := MergeBench(fresh, serving.Section); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if v, want := jsonValue(t, got), encode(t, serving.Section); !reflect.DeepEqual(v, want) {
			t.Errorf("new file = %v, want %v", v, want)
		}
	}
}
