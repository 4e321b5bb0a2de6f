// Package wire is the canonical registry of uavdc's versioned
// wire-format tags. Every serialized artifact the repo emits — serve
// request/response bodies, the op-log and trace JSONL streams, canonical
// cache-key encodings, bench panels, the lint report — is stamped with a
// "uavdc-<name>/<version>" tag declared here and nowhere else.
//
// The registry is the single source of truth three ways:
//
//   - Producing and consuming packages reference the exported constants
//     (trace.Schema = wire.Trace, ...) instead of spelling out literals,
//     so an encoder and its decoder cannot drift apart.
//   - The wirefmt analyzer (internal/lint) constant-folds every
//     "uavdc-*/N" string literal in non-test code against Current, so an
//     unregistered schema name or a stale version is a lint failure.
//   - A test cross-checks the registry against the "Wire-format
//     registry" table in EXPERIMENTS.md, so documentation and
//     enforcement cannot drift apart (mirroring internal/obs's
//     canonical-name registry).
//
// Bumping a schema version is therefore a three-line change — the
// constant, the EXPERIMENTS.md row, and the format change itself — and
// the lint suite catches any encoder or decoder left behind.
package wire

import (
	"fmt"
	"strconv"
	"strings"
)

// The current tag of every registered wire format, one constant per
// schema. Bump a version here (and in the EXPERIMENTS.md registry
// table) when the format changes meaning.
const (
	// Bench tags the BENCH_LEDGER.json deterministic ledger (internal/experiments).
	Bench = "uavdc-bench/2"
	// Canon tags the canonical instance-key encoding (internal/canon).
	Canon = "uavdc-canon/1"
	// Health tags the /healthz JSON body (internal/serve).
	Health = "uavdc-health/1"
	// Lint tags uavlint's -json report (internal/lint).
	Lint = "uavdc-lint/2"
	// Oplog tags the request op-log JSONL stream (internal/oplog).
	Oplog = "uavdc-oplog/1"
	// Runtime tags the /debug/runtime JSON body (internal/serve).
	Runtime = "uavdc-runtime/1"
	// Serve tags plan request and response bodies (internal/serve).
	Serve = "uavdc-serve/1"
	// Trace tags the flight-recorder JSONL stream (internal/trace).
	Trace = "uavdc-trace/1"
	// Window tags the /debug/window JSON body (internal/serve).
	Window = "uavdc-window/1"
)

// current maps each registered schema name to its current version; it is
// derived from the constants above so the two cannot disagree.
var current = map[string]int{}

func init() {
	for _, tag := range []string{
		Bench, Canon, Health, Lint, Oplog, Runtime, Serve, Trace, Window,
	} {
		name, version, err := ParseTag(tag)
		if err != nil {
			panic(fmt.Sprintf("wire: bad registry constant %q: %v", tag, err))
		}
		if _, dup := current[name]; dup {
			panic(fmt.Sprintf("wire: schema %q registered twice", name))
		}
		current[name] = version
	}
}

// Current returns the registered current version of a schema name (the
// part between "uavdc-" and the "/"), and whether the name is
// registered at all.
func Current(name string) (version int, ok bool) {
	version, ok = current[name]
	return version, ok
}

// ParseTag splits a "uavdc-<name>/<version>" tag into its schema name
// and version. The name grammar matches the wirefmt analyzer: lowercase
// letters, digits, and interior dashes, starting with a letter.
func ParseTag(tag string) (name string, version int, err error) {
	rest, ok := strings.CutPrefix(tag, "uavdc-")
	if !ok {
		return "", 0, fmt.Errorf("wire: tag %q does not start with %q", tag, "uavdc-")
	}
	name, ver, ok := strings.Cut(rest, "/")
	if !ok {
		return "", 0, fmt.Errorf("wire: tag %q has no /version suffix", tag)
	}
	if !validName(name) {
		return "", 0, fmt.Errorf("wire: tag %q has invalid schema name %q", tag, name)
	}
	version, err = strconv.Atoi(ver)
	if err != nil || version < 1 {
		return "", 0, fmt.Errorf("wire: tag %q has invalid version %q", tag, ver)
	}
	return name, version, nil
}

// validName reports whether name is a well-formed schema name:
// lowercase letters, digits, and dashes, starting with a letter and not
// ending with a dash.
func validName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' || name[len(name)-1] == '-' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}
