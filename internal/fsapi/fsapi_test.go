package fsapi

import (
	"reflect"
	"testing"
)

// The in-place walkers and the slice-building splitters must agree on
// what a path's components are, whatever the slashes look like.
func TestPathWalkersAgree(t *testing.T) {
	for _, tc := range []struct {
		path  string
		parts []string
	}{
		{"", nil},
		{"/", nil},
		{"///", nil},
		{"/a", []string{"a"}},
		{"a", []string{"a"}},
		{"/a/", []string{"a"}},
		{"/a/b", []string{"a", "b"}},
		{"//a///b//", []string{"a", "b"}},
		{"a/b/c", []string{"a", "b", "c"}},
		{"/d07/t00042", []string{"d07", "t00042"}},
	} {
		if got := SplitPath(tc.path); !reflect.DeepEqual(got, tc.parts) {
			t.Errorf("SplitPath(%q) = %q, want %q", tc.path, got, tc.parts)
		}
		dir, name := SplitLast(tc.path)
		if len(tc.parts) == 0 {
			if name != "" {
				t.Errorf("SplitLast(%q) name = %q, want none", tc.path, name)
			}
			if _, _, err := SplitDir(tc.path); err != ErrInval {
				t.Errorf("SplitDir(%q) error = %v, want ErrInval", tc.path, err)
			}
			continue
		}
		if got := append(SplitPath(dir), name); !reflect.DeepEqual(got, tc.parts) {
			t.Errorf("SplitLast(%q) = (%q, %q): components %q, want %q", tc.path, dir, name, got, tc.parts)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for name, rest := NextComponent("/d07//t00042/"); name != ""; name, rest = NextComponent(rest) {
		}
		SplitLast("/d07//t00042/")
	}); n != 0 {
		t.Errorf("walking a path in place allocates %v times", n)
	}
}
