package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"uavdc"
	"uavdc/internal/serve"
)

// field is one instance family: sensors uniform in a side × side square,
// the paper's default radio and UAV model at the given battery.
type field struct {
	sensors   int
	side      float64
	capacityJ float64
	deltaM    float64
	k         int
}

// scale sizes every workload. paperScale is what the benchmark runs;
// the tests use tinyScale.
type scale struct {
	paper, reduced, tiny field
	// planInstances is the number of distinct paper-plan instances.
	planInstances int
	// hitDistinct is the number of distinct hit-heavy requests.
	hitDistinct int
	// churnDistinct and churnCache size the miss-churn key set and its
	// LRU; churnSkew is the Zipf exponent of the request sequence.
	churnDistinct, churnCache int
	churnSkew                 float64
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int
	// hitWarmup and churnWarmup are the unmeasured requests each client
	// sends before the window opens.
	hitWarmup, churnWarmup int
	// slices splits a serving window into equal parts for sliceStats.
	slices int
	// layerScenarios caps the scenarios a traced serving run plans layer
	// by layer with all four planners.
	layerScenarios int
}

var paperScale = scale{
	// PaperTight: the paper's 500 sensors on 1 km² at δ = 10 m, with the
	// battery at 1.5×10⁵ J, where no planner collects the whole field.
	paper: field{sensors: 500, side: 1000, capacityJ: 1.5e5, deltaM: 10, k: 4},
	// Reduced: the same density on a 350 m square.
	reduced:        field{sensors: 60, side: 350, capacityJ: 1.5e4, deltaM: 15, k: 4},
	tiny:           field{sensors: 15, side: 160, capacityJ: 6e3, deltaM: 10, k: 4},
	planInstances:  6,
	hitDistinct:    4,
	churnDistinct:  128,
	churnCache:     24,
	churnSkew:      1.2,
	setupReps:      5,
	hitWarmup:      40,
	churnWarmup:    200,
	slices:         100,
	layerScenarios: 8,
}

// tinyScale runs every workload on Tiny fields, for the smoke tests.
func tinyScale() scale {
	s := paperScale
	s.paper, s.reduced = s.tiny, s.tiny
	s.planInstances, s.hitDistinct, s.churnDistinct, s.churnCache = 2, 2, 8, 2
	s.hitWarmup, s.churnWarmup, s.slices, s.layerScenarios, s.setupReps = 4, 4, 2, 2, 2
	return s
}

// planners is the fixed order every paper-plan instance is planned in.
var planners = []uavdc.Algorithm{
	uavdc.AlgorithmNoOverlap, uavdc.AlgorithmGreedy, uavdc.AlgorithmPartial, uavdc.AlgorithmBaseline,
}

func (f field) uav() uavdc.UAV {
	u := uavdc.DefaultUAV()
	u.CapacityJ = f.capacityJ
	return u
}

func (f field) options(alg uavdc.Algorithm) uavdc.Options {
	return uavdc.Options{Algorithm: alg, DeltaM: f.deltaM, K: f.k}
}

// scenarios draws n distinct fields from the seed.
func (f field) scenarios(seed uint64, stream string, n int) []uavdc.Scenario {
	r := rand.New(rand.NewPCG(seed, streamID(stream)))
	out := make([]uavdc.Scenario, n)
	for i := range out {
		out[i] = uavdc.RandomScenario(f.sensors, f.side, r.Uint64())
	}
	return out
}

// streamID separates the random streams of different workloads.
func streamID(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// request is one distinct serving input: the wire request, its
// marshalled body, and the reference response a direct uavdc.Plan call
// produces for it.
type request struct {
	req      serve.Request
	body     []byte
	expected []byte
	result   *uavdc.Result
}

// buildRequests marshals one request per scenario, planned with the
// given algorithms in turn. The reference responses are computed later
// by plan, outside every timed section.
func buildRequests(f field, scs []uavdc.Scenario, algs []uavdc.Algorithm) ([]request, error) {
	out := make([]request, len(scs))
	for i, sc := range scs {
		opts := f.options(algs[i%len(algs)])
		r := serve.Request{
			Schema:   serve.Schema,
			Scenario: serve.SpecOf(sc),
			UAV:      serve.UAVSpecOf(f.uav()),
			Options:  serve.OptionsSpec{Algorithm: string(opts.Algorithm), DeltaM: opts.DeltaM, K: opts.K},
		}
		body, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("marshal request %d: %w", i, err)
		}
		out[i] = request{req: r, body: body}
	}
	return out, nil
}

// plan computes the reference response of every request: a direct
// uavdc.Plan call encoded with serve.EncodeResult.
func planReferences(reqs []request) error {
	for i := range reqs {
		r := &reqs[i]
		key, err := r.req.Key()
		if err != nil {
			return fmt.Errorf("request %d key: %w", i, err)
		}
		res, err := uavdc.Plan(r.req.Scenario.Scenario(), r.req.UAV.UAV(), r.req.Options.Options())
		if err != nil {
			return fmt.Errorf("request %d reference plan: %w", i, err)
		}
		if r.expected, err = serve.EncodeResult(key, res); err != nil {
			return fmt.Errorf("request %d reference encode: %w", i, err)
		}
		r.result = res
	}
	return nil
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(xs) {
		i = len(xs)
	}
	return xs[i-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// memStats reads the cumulative heap allocation and GC cycle count
// without stopping the world.
type memStats struct{ allocBytes, gcCycles uint64 }

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readMem() memStats {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return memStats{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// liveHeapMiB forces a collection and returns the bytes still reachable.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timeSetup runs set-up reps times and returns the median duration in
// seconds and the value of the last run; close releases every earlier
// run's value before the next one starts.
func timeSetup[T any](reps int, setup func() (T, error), close func(T) error) (T, float64, error) {
	var last T
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := close(last); err != nil {
				return last, 0, err
			}
		}
		start := time.Now()
		v, err := setup()
		durs = append(durs, time.Since(start).Seconds())
		if err != nil {
			var zero T
			return zero, 0, err
		}
		last = v
	}
	return last, median(durs), nil
}
