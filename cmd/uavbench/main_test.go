package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"uavdc/internal/experiments"
)

func TestRunStdout(t *testing.T) {
	want := &experiments.Bench{Schema: experiments.BenchSchema, Preset: "tiny"}
	var out, errb strings.Builder
	code := run(nil, &out, &errb, func() (*experiments.Bench, error) { return want, nil })
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var got experiments.Bench
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("stdout is not a ledger document: %v\n%s", err, out.String())
	}
	if got.Schema != experiments.BenchSchema || got.Preset != "tiny" {
		t.Errorf("ledger content wrong: %+v", got)
	}

	out.Reset()
	errb.Reset()
	failing := func() (*experiments.Bench, error) { return nil, errors.New("boom") }
	if code := run(nil, &out, &errb, failing); code != 1 || out.Len() != 0 {
		t.Errorf("failing ledger: exit %d, stdout %q; want 1 and nothing written", code, out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-preset", "reduced"},
		{"-out", "-"},
		{"-what"},
		{"extra"},
	}
	for _, args := range cases {
		var out, errb strings.Builder
		called := false
		ledger := func() (*experiments.Bench, error) { called = true; return nil, nil }
		if code := run(args, &out, &errb, ledger); code != 2 || called {
			t.Errorf("run(%v) = %d (ledger built: %v), want 2 without building", args, code, called)
		}
	}
}
