package lint

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeModule writes a module named tmp into a temp dir: go.mod plus
// the given files, keyed by slash-separated path relative to the root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmp\n\ngo 1.23\n"
	for _, name := range slices.Sorted(maps.Keys(files)) {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(files[name]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadErrors: a module that cannot be loaded fails the whole load,
// with an error that names the package at fault or the cycle.
func TestLoadErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{
			name:  "missing import",
			files: map[string]string{"a.go": "package tmp\n\nimport _ \"nosuch/pkg\"\n"},
			want:  "nosuch/pkg",
		},
		{
			name:  "type error",
			files: map[string]string{"a/a.go": "package a\n\nvar x int = \"s\"\n"},
			want:  "type-checking tmp/a",
		},
		{
			name: "import cycle",
			files: map[string]string{
				"a/a.go": "package a\n\nimport _ \"tmp/b\"\n",
				"b/b.go": "package b\n\nimport _ \"tmp/a\"\n",
			},
			want: "import cycle",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := Load(writeModule(t, tc.files))
			if err == nil {
				t.Fatalf("Load succeeded with %d units, want an error containing %q", len(mod.Pkgs), tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load error %q does not contain %q", err, tc.want)
			}
		})
	}
}
