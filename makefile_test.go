package uavdc

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileGateNamesExist: `go test -run 'A|B'` passes silently once A
// no longer exists, so a named CI gate could quietly stop testing
// anything. Every -run alternative and -fuzz target in the Makefile must
// match, as go test matches it, a test function declared in the _test.go
// files of the packages that command names.
func TestMakefileGateNamesExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	word := regexp.MustCompile(`'[^']*'|\S+`)
	checked := 0
	for i, line := range strings.Split(string(mk), "\n") {
		args := word.FindAllString(line, -1)
		if !slices.Contains(args, "$(GO)") || !slices.Contains(args, "test") {
			continue
		}
		var pkgs, patterns []string
		for j, a := range args {
			switch {
			case a == "-run" && slices.Contains(args, "-bench"):
				// -run XXX next to -bench deliberately runs no test.
			case (a == "-run" || a == "-fuzz") && j+1 < len(args):
				patterns = append(patterns, strings.Split(strings.Trim(args[j+1], "'"), "|")...)
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		names := testFuncNames(t, pkgs)
		for _, p := range patterns {
			re, err := regexp.Compile(p)
			if err != nil {
				t.Errorf("Makefile:%d: bad pattern %q: %v", i+1, p, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("Makefile:%d: %q matches no test function in %v", i+1, p, pkgs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz names in the Makefile")
	}
}

// testFuncNames lists the Test, Fuzz, Benchmark and Example functions
// declared in the _test.go files of the given package directories.
func testFuncNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	var names []string
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
	}
	return names
}
