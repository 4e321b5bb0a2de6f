package obs

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

func TestLookupCanonical(t *testing.T) {
	cases := []struct {
		name string
		kind NameKind
		ok   bool
	}{
		{"core.candidate_evals", KindCounter, true},
		{"exec.energy_deviation_hist", KindHistogram, true},
		{"plan/alg2/iterate", KindSpan, true},
		{"mission/takeoff", KindEvent, true},
		{"mission/battery-dead", KindEvent, true},
		{"mission/", 0, false}, // wildcard needs a non-empty suffix
		{"mission", 0, false},  // the bare prefix is not an event
		{"core.bogus", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		kind, ok := LookupCanonical(c.name)
		if ok != c.ok || (ok && kind != c.kind) {
			t.Errorf("LookupCanonical(%q) = %v, %v; want %v, %v", c.name, kind, ok, c.kind, c.ok)
		}
	}
}

func TestLookupCanonicalPrefix(t *testing.T) {
	if kind, ok := LookupCanonicalPrefix("mission/"); !ok || kind != KindEvent {
		t.Errorf("LookupCanonicalPrefix(mission/) = %v, %v; want KindEvent, true", kind, ok)
	}
	for _, bad := range []string{"mission", "plan/", "bogus/", ""} {
		if _, ok := LookupCanonicalPrefix(bad); ok {
			t.Errorf("LookupCanonicalPrefix(%q) matched; want no match", bad)
		}
	}
}

// experimentsRegistryTable parses the "Canonical name registry" table in
// EXPERIMENTS.md: rows of the form "| `name` | kind | ... |" between the
// registry heading and the next heading.
func experimentsRegistryTable(t *testing.T) map[string]string {
	t.Helper()
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	row := regexp.MustCompile("^\\| `([^`]+)` \\| ([a-z]+) \\|")
	names := map[string]string{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			in = strings.Contains(line, "Canonical name registry")
			continue
		}
		if !in {
			continue
		}
		if m := row.FindStringSubmatch(line); m != nil {
			if _, dup := names[m[1]]; dup {
				t.Errorf("EXPERIMENTS.md registry table lists %q twice", m[1])
			}
			names[m[1]] = m[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no registry rows found under the 'Canonical name registry' heading in EXPERIMENTS.md")
	}
	return names
}

// TestCanonicalNamesMatchExperimentsDoc asserts the in-code registry and
// the EXPERIMENTS.md registry table are the same set, kind for kind —
// documentation and enforcement cannot drift apart.
func TestCanonicalNamesMatchExperimentsDoc(t *testing.T) {
	doc := experimentsRegistryTable(t)
	reg := CanonicalNames()
	for _, name := range sortedKeys(reg) {
		kind := reg[name]
		got, ok := doc[name]
		if !ok {
			t.Errorf("registry name %q (%v) is missing from the EXPERIMENTS.md registry table", name, kind)
			continue
		}
		if got != kind.String() {
			t.Errorf("%q: EXPERIMENTS.md documents kind %q, registry says %q", name, got, kind)
		}
	}
	for _, name := range sortedKeys(doc) {
		if _, ok := reg[name]; !ok {
			t.Errorf("EXPERIMENTS.md documents %q, which is not in the obs registry", name)
		}
	}
}

// sortedKeys returns m's keys in sorted order, so table mismatches are
// reported deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestNameKindString(t *testing.T) {
	want := []struct {
		kind NameKind
		str  string
	}{
		{KindCounter, "counter"}, {KindHistogram, "histogram"},
		{KindSpan, "span"}, {KindEvent, "event"}, {KindGauge, "gauge"},
		{NameKind(99), "unknown"},
	}
	for _, c := range want {
		if got := c.kind.String(); got != c.str {
			t.Errorf("NameKind(%d).String() = %q, want %q", c.kind, got, c.str)
		}
	}
	// Keep the fmt import honest and the kinds printable.
	if s := fmt.Sprint(KindSpan); s != "span" {
		t.Errorf("fmt.Sprint(KindSpan) = %q", s)
	}
}

// CanonicalNames returns every registered name (wildcards included) with
// its kind. The returned map is a copy.
func CanonicalNames() map[string]NameKind {
	out := make(map[string]NameKind, len(canonicalNames))
	for name, kind := range canonicalNames {
		out[name] = kind
	}
	return out
}
