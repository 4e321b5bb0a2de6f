package experiments

import "testing"

// TestBenchServePanel locks the serve panel's deterministic fields: the
// two-phase choreography makes every counter exactly predictable, and
// every served body must be bit-identical to a direct plan.
func TestBenchServePanel(t *testing.T) {
	sv, err := runBenchServe("tiny", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !sv.BitIdentical {
		t.Error("served bodies diverged from direct plans")
	}
	if sv.Requests != serveRequests || sv.Distinct != serveDistinct || sv.Clients != serveClients {
		t.Errorf("load shape %d/%d/%d, want %d/%d/%d", sv.Requests, sv.Distinct, sv.Clients,
			serveRequests, serveDistinct, serveClients)
	}
	if sv.Misses != serveDistinct || sv.Plans != serveDistinct {
		t.Errorf("misses=%d plans=%d, want both %d (cold pass plans each distinct instance once)",
			sv.Misses, sv.Plans, serveDistinct)
	}
	if sv.Hits != serveRequests-serveDistinct {
		t.Errorf("hits=%d, want %d (every warm repeat is a cache hit)", sv.Hits, serveRequests-serveDistinct)
	}
	if sv.Coalesced != 0 || sv.Rejected != 0 {
		t.Errorf("coalesced=%d rejected=%d, want 0 (warm phase never misses)", sv.Coalesced, sv.Rejected)
	}
	if got := sv.Hits + sv.Misses + sv.Coalesced + sv.Rejected; got != serveRequests {
		t.Errorf("counter dispositions sum to %d, want %d", got, serveRequests)
	}
	if !sv.OpLogConsistent {
		t.Error("op-log per-disposition counts diverged from the panel counters")
	}
}

// TestServeRequestsDeterministic: the request mix is a pure function of
// the preset, so panel inputs reproduce across runs and machines.
func TestServeRequestsDeterministic(t *testing.T) {
	a, err := ServeRequests(Tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServeRequests(Tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ka, err := a[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		kb, err := b[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb {
			t.Fatalf("request %d key drifted: %s vs %s", i, ka, kb)
		}
		for j := 0; j < i; j++ {
			kj, err := a[j].Key()
			if err != nil {
				t.Fatal(err)
			}
			if kj == ka {
				t.Fatalf("requests %d and %d collide on key %s; the mix must be distinct instances", j, i, ka)
			}
		}
	}
}
