package uavdc

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestPlanKeyDeterministic(t *testing.T) {
	sc := RandomScenario(20, 200, 1)
	uav := DefaultUAV()
	a, err := PlanKey(sc, uav, Options{})
	if err != nil {
		t.Fatalf("PlanKey: %v", err)
	}
	b, err := PlanKey(sc, uav, Options{})
	if err != nil {
		t.Fatalf("PlanKey: %v", err)
	}
	if a != b {
		t.Fatalf("same call, different keys: %s vs %s", a, b)
	}
	if len(a) != 64 || strings.ToLower(a) != a {
		t.Fatalf("key is not lowercase sha256 hex: %q", a)
	}
}

func TestPlanKeyDefaultElision(t *testing.T) {
	sc := RandomScenario(20, 200, 1)
	uav := DefaultUAV()
	elided, err := PlanKey(sc, uav, Options{})
	if err != nil {
		t.Fatalf("PlanKey: %v", err)
	}
	spelled, err := PlanKey(sc, uav, Options{
		Algorithm: AlgorithmPartial,
		K:         4,
		DeltaM:    sc.CoverRadiusM / 5,
	})
	if err != nil {
		t.Fatalf("PlanKey: %v", err)
	}
	if elided != spelled {
		t.Fatal("elided and spelled-out defaults produce different keys")
	}
}

func TestPlanKeySensitivity(t *testing.T) {
	sc := RandomScenario(20, 200, 1)
	uav := DefaultUAV()
	base, err := PlanKey(sc, uav, Options{})
	if err != nil {
		t.Fatalf("PlanKey: %v", err)
	}
	cases := map[string]func() (string, error){
		"algorithm": func() (string, error) { return PlanKey(sc, uav, Options{Algorithm: AlgorithmGreedy}) },
		"refine":    func() (string, error) { return PlanKey(sc, uav, Options{Refine: true}) },
		"altitude":  func() (string, error) { return PlanKey(sc, uav, Options{AltitudeM: 30}) },
		"shannon":   func() (string, error) { return PlanKey(sc, uav, Options{ShannonRadio: true}) },
		"k":         func() (string, error) { return PlanKey(sc, uav, Options{K: 8}) },
		"capacity": func() (string, error) {
			u := uav
			u.CapacityJ *= 2
			return PlanKey(sc, u, Options{})
		},
		"scenario": func() (string, error) { return PlanKey(RandomScenario(20, 200, 2), uav, Options{}) },
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		k, err := cases[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == base {
			t.Errorf("%s: option change did not change the key", name)
		}
	}
}

func TestPlanKeyOutputNeutralOptions(t *testing.T) {
	sc := RandomScenario(20, 200, 1)
	uav := DefaultUAV()
	base, err := PlanKey(sc, uav, Options{})
	if err != nil {
		t.Fatalf("PlanKey: %v", err)
	}
	tr, err := PlanKey(sc, uav, Options{Trace: NewTrace()})
	if err != nil {
		t.Fatalf("PlanKey: %v", err)
	}
	if tr != base {
		t.Fatal("output-neutral options leaked into the key")
	}
}

func TestPlanKeyRejectsInvalid(t *testing.T) {
	sc := RandomScenario(20, 200, 1)
	if _, err := PlanKey(sc, DefaultUAV(), Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := PlanKey(Scenario{}, DefaultUAV(), Options{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
}

// TestPlanKeyMatchesCoreAdapter proves the facade and core hash the same
// canonical instance — the "shared by core" half of the cache-key
// contract.
func TestPlanKeyMatchesCoreAdapter(t *testing.T) {
	sc := RandomScenario(20, 200, 1)
	uav := DefaultUAV()
	opts := Options{Algorithm: AlgorithmGreedy, AltitudeM: 20, ShannonRadio: true}
	want, err := planKey(sc, uav, opts)
	if err != nil {
		t.Fatalf("planKey: %v", err)
	}
	in, err := sc.instance(uav, opts)
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	got, err := in.CanonKey(string(opts.Algorithm), opts.Refine)
	if err != nil {
		t.Fatalf("CanonKey: %v", err)
	}
	if got != want {
		t.Fatal("facade and core adapter keys diverge")
	}
}
