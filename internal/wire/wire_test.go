package wire

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestParseTag(t *testing.T) {
	cases := []struct {
		tag     string
		name    string
		version int
		ok      bool
	}{
		{"uavdc-serve/1", "serve", 1, true},
		{"uavdc-simulate-adaptive/1", "simulate-adaptive", 1, true},
		{"uavdc-lint/2", "lint", 2, true},
		{"uavdc-lint/10", "lint", 10, true},
		{"uavdc-serve/0", "", 0, false},  // versions start at 1
		{"uavdc-serve/-1", "", 0, false}, // negative version
		{"uavdc-serve/x", "", 0, false},  // non-numeric version
		{"uavdc-serve", "", 0, false},    // no version
		{"uavdc-Serve/1", "", 0, false},  // uppercase name
		{"uavdc-9lives/1", "", 0, false}, // leading digit
		{"uavdc-bad-/1", "", 0, false},   // trailing dash
		{"uavdc-/1", "", 0, false},       // empty name
		{"oplog/1", "", 0, false},        // missing uavdc- prefix
		{"", "", 0, false},
	}
	for _, c := range cases {
		name, version, err := ParseTag(c.tag)
		if (err == nil) != c.ok {
			t.Errorf("ParseTag(%q) err = %v; want ok=%v", c.tag, err, c.ok)
			continue
		}
		if c.ok && (name != c.name || version != c.version) {
			t.Errorf("ParseTag(%q) = %q, %d; want %q, %d", c.tag, name, version, c.name, c.version)
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	reg := Canonical()
	for _, name := range sortedKeys(reg) {
		version := reg[name]
		tag := Tag(name, version)
		gotName, gotVersion, err := ParseTag(tag)
		if err != nil || gotName != name || gotVersion != version {
			t.Errorf("ParseTag(Tag(%q, %d)) = %q, %d, %v", name, version, gotName, gotVersion, err)
		}
	}
}

func TestCurrent(t *testing.T) {
	if v, ok := Current("serve"); !ok || v != 1 {
		t.Errorf("Current(serve) = %d, %v; want 1, true", v, ok)
	}
	if v, ok := Current("lint"); !ok || v != 2 {
		t.Errorf("Current(lint) = %d, %v; want 2, true", v, ok)
	}
	for _, bad := range []string{"bogus", "uavdc-serve", "serve/1", ""} {
		if _, ok := Current(bad); ok {
			t.Errorf("Current(%q) matched; want no match", bad)
		}
	}
}

// TestCanonicalIsACopy locks that mutating the returned map cannot
// corrupt the registry.
func TestCanonicalIsACopy(t *testing.T) {
	Canonical()["serve"] = 99
	if v, _ := Current("serve"); v != 1 {
		t.Fatalf("Current(serve) = %d after mutating Canonical() copy; want 1", v)
	}
}

// experimentsWireTable parses the "Wire-format registry" table in
// EXPERIMENTS.md: rows of the form "| `uavdc-name/N` | ... |" between
// the registry heading and the next heading.
func experimentsWireTable(t *testing.T) map[string]int {
	t.Helper()
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	row := regexp.MustCompile("^\\| `([^`]+)` \\|")
	tags := map[string]int{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			in = strings.Contains(line, "Wire-format registry")
			continue
		}
		if !in {
			continue
		}
		if m := row.FindStringSubmatch(line); m != nil {
			name, version, err := ParseTag(m[1])
			if err != nil {
				t.Errorf("EXPERIMENTS.md wire table row %q: %v", m[1], err)
				continue
			}
			if _, dup := tags[name]; dup {
				t.Errorf("EXPERIMENTS.md wire table lists schema %q twice", name)
			}
			tags[name] = version
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(tags) == 0 {
		t.Fatal("no rows found under the 'Wire-format registry' heading in EXPERIMENTS.md")
	}
	return tags
}

// TestWireRegistryMatchesExperimentsDoc asserts the in-code registry
// and the EXPERIMENTS.md wire-format table are the same set, version
// for version — documentation and enforcement cannot drift apart.
func TestWireRegistryMatchesExperimentsDoc(t *testing.T) {
	doc := experimentsWireTable(t)
	reg := Canonical()
	for _, name := range sortedKeys(reg) {
		version := reg[name]
		got, ok := doc[name]
		if !ok {
			t.Errorf("wire schema %q (v%d) is missing from the EXPERIMENTS.md wire-format table", name, version)
			continue
		}
		if got != version {
			t.Errorf("%q: EXPERIMENTS.md documents version %d, registry says %d", name, got, version)
		}
	}
	for _, name := range sortedKeys(doc) {
		if _, ok := reg[name]; !ok {
			t.Errorf("EXPERIMENTS.md documents wire schema %q, which is not in the wire registry", name)
		}
	}
}

// sortedKeys returns m's keys in sorted order, so table mismatches are
// reported deterministically.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Canonical returns a copy of the registry, schema name → current
// version, for cross-checking tests and the wirefmt analyzer.
func Canonical() map[string]int {
	out := make(map[string]int, len(current))
	for name, version := range current {
		out[name] = version
	}
	return out
}

// Tag assembles the "uavdc-<name>/<version>" form.
func Tag(name string, version int) string {
	return fmt.Sprintf("uavdc-%s/%d", name, version)
}
