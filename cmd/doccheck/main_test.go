package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyModule writes a module whose internal package p has one export only
// a test and itself call (Unused), one a command calls (Used) and a type whose
// methods are called only through interfaces: String by fmt, Do through
// the module's Doer.
func tinyModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tiny\n\ngo 1.24\n",
		"main.go": `package main

import (
	"fmt"

	"example.com/tiny/internal/p"
)

func main() {
	var d p.Doer = p.New()
	d.Do()
	fmt.Println(p.New(), p.Used())
}
`,
		"internal/p/p.go": `// Package p is the package under check.
package p

// Doer is the module's own interface.
type Doer interface{ Do() }

// T implements fmt.Stringer and Doer.
type T struct{}

// New returns a T.
func New() T { return T{} }

// String is called only by fmt.
func (T) String() string { return "t" }

// Do is called only through Doer.
func (T) Do() {}

// Used is called by main.
func Used() int { return 1 }

// Unused is called only by a test, and by itself.
func Unused(n int) int {
	if n > 0 {
		return Unused(n - 1)
	}
	return 0
}
`,
		"internal/p/p_test.go": `package p

import "testing"

func TestUnused(t *testing.T) { Unused(1) }
`,
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestUnusedExports: an export only a test calls is reported; methods
// used through fmt.Stringer or a module interface are not; an allow-list
// entry without a kind and reason, for a used name or for an unknown name
// is reported.
func TestUnusedExports(t *testing.T) {
	l, err := newLoader(tinyModule(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		allow map[string]string
		want  []string // the report, one substring per line
	}{
		{"no allow-list", nil, []string{"internal/p/p.go:23: exported p.Unused has no use"}},
		{"allowed with a reason", map[string]string{"p.Unused": "reference: a test helper"}, nil},
		{"allowed without a reason", map[string]string{"p.Unused": "reference: "}, []string{"allow-list entry p.Unused needs a reason"}},
		{"allowed without a kind", map[string]string{"p.Unused": "a test helper"}, []string{"allow-list entry p.Unused needs a reason"}},
		{"allowed but used", map[string]string{"p.Unused": "reference: a test helper", "p.Used": "closed form: a formula"},
			[]string{"allow-list entry p.Used is used outside tests"}},
		{"allowed but unknown", map[string]string{"p.Unused": "reference: a test helper", "p.Gone": "reference: deleted"},
			[]string{"allow-list entry p.Gone names no exported object"}},
	} {
		got := unusedExports(l, c.allow)
		if len(got) != len(c.want) {
			t.Errorf("%s: report %q, want %d lines %q", c.name, got, len(c.want), c.want)
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: line %q, want it to contain %q", c.name, got[i], w)
			}
		}
	}
}
