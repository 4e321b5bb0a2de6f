package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"uavdc"
	"uavdc/internal/obs"
	"uavdc/internal/oplog"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/serve"
)

// BenchServe is the ledger's serve panel: a loopback load run against
// the internal/serve daemon core on the preset's field distribution. The
// run is two-phase — every distinct instance planned cold once, then the
// remaining requests fired from concurrent clients against the warm
// cache — so the counter fields are exactly predictable: misses = plans
// = distinct instances, hits = requests − distinct, rejected =
// coalesced = 0. bit_identical records that every served body, cold or
// warm, equalled a direct uavdc.Plan call.
type BenchServe struct {
	Preset       string `json:"preset"`
	Requests     int    `json:"requests"`
	Distinct     int    `json:"distinct_instances"`
	Clients      int    `json:"clients"`
	Workers      int    `json:"workers"`
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"`
	Coalesced    int64  `json:"coalesced"`
	Rejected     int64  `json:"rejected"`
	Plans        int64  `json:"plans"`
	BitIdentical bool   `json:"bit_identical"`
	// OpLogConsistent records that the run's uavdc-oplog/1 stream (one
	// record per request, captured losslessly) summarized to exactly the
	// counter fields above: per-disposition counts equal, no drops.
	OpLogConsistent bool `json:"oplog_consistent"`
}

// ServeRequests builds the uavdc-serve/1 requests of the preset's load
// mix: distinct random fields from the preset's generator at its fixed
// δ and largest K, planned with the default algorithm.
func ServeRequests(cfg Config, distinct int) ([]serve.Request, error) {
	k := 4
	if len(cfg.Ks) > 0 {
		k = cfg.Ks[len(cfg.Ks)-1]
	}
	uav := serve.UAVSpecOf(uavdc.UAV{
		HoverPowerW:  cfg.Model.HoverPower.F(),
		TravelPowerW: cfg.Model.TravelPower.F(),
		SpeedMS:      cfg.Model.Speed.F(),
		CapacityJ:    cfg.Model.Capacity.F(),
		ClimbPowerW:  cfg.Model.ClimbPower.F(),
		ClimbRateMS:  cfg.Model.ClimbRate.F(),
	})
	reqs := make([]serve.Request, distinct)
	for i := range reqs {
		net, err := sensornet.Generate(cfg.Gen, rng.New(cfg.Seed+uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("experiments: generate serve instance %d: %w", i, err)
		}
		spec := serve.ScenarioSpec{
			RegionSideM:   cfg.Gen.Side,
			DepotX:        net.Depot.X,
			DepotY:        net.Depot.Y,
			BandwidthMBps: net.Bandwidth,
			CoverRadiusM:  net.CommRange,
			Sensors:       make([]serve.SensorSpec, len(net.Sensors)),
		}
		for j, s := range net.Sensors {
			spec.Sensors[j] = serve.SensorSpec{X: s.Pos.X, Y: s.Pos.Y, DataMB: s.Data}
		}
		reqs[i] = serve.Request{
			Schema:   serve.Schema,
			Scenario: spec,
			UAV:      uav,
			Options:  serve.OptionsSpec{DeltaM: cfg.Delta, K: k},
		}
	}
	return reqs, nil
}

// runBenchServe runs the serve panel: serveRequests requests over
// serveDistinct instances from serveClients concurrent clients.
func runBenchServe(preset string, cfg Config) (*BenchServe, error) {
	const requests, distinct, clients = serveRequests, serveDistinct, serveClients
	reqs, err := ServeRequests(cfg, distinct)
	if err != nil {
		return nil, err
	}

	// Reference bodies: one direct Plan call per distinct instance —
	// the bit-identity baseline.
	expected := make([][]byte, distinct)
	for i, r := range reqs {
		key, err := r.Key()
		if err != nil {
			return nil, err
		}
		res, err := uavdc.Plan(r.Scenario.Scenario(), r.UAV.UAV(), r.Options.Options())
		if err != nil {
			return nil, fmt.Errorf("experiments: direct plan %d: %w", i, err)
		}
		if expected[i], err = serve.EncodeResult(key, res); err != nil {
			return nil, err
		}
	}

	reg := obs.NewRegistry()
	// The op-log buffer is sized to the run so no record drops and the
	// summary/counter cross-check below is exact.
	var oplogBuf bytes.Buffer
	s := serve.New(serve.Config{Obs: reg, OpLog: &oplogBuf, OpLogBuffer: requests + 8})
	defer func() { _ = s.Close(context.Background()) }() // nothing in flight by then; counters already read
	ctx := context.Background()

	var identical atomic.Bool
	identical.Store(true)

	// Phase 1: cold, serial — every distinct instance planned once.
	for i, r := range reqs {
		out := s.Do(ctx, r)
		if out.Status != 200 {
			return nil, fmt.Errorf("experiments: cold serve %d: status %d: %s", i, out.Status, out.Body)
		}
		if !bytes.Equal(out.Body, expected[i]) {
			identical.Store(false)
		}
	}

	// Phase 2: warm, concurrent — the remaining requests round-robin
	// over the now-cached instances from all clients at once.
	var next atomic.Int64
	next.Store(int64(distinct))
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				r := i % distinct
				out := s.Do(ctx, reqs[r])
				if out.Status != 200 {
					select {
					case errc <- fmt.Errorf("experiments: warm serve %d: status %d: %s", i, out.Status, out.Body):
					default:
					}
					return
				}
				if !bytes.Equal(out.Body, expected[r]) {
					identical.Store(false)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	counters := reg.Snapshot().Counters
	// Close drains the async op-log writer so the stream is complete
	// before the cross-check (Close is idempotent; the defer is a no-op).
	if err := s.Close(ctx); err != nil {
		return nil, err
	}
	panel := &BenchServe{
		Preset:       preset,
		Requests:     requests,
		Distinct:     distinct,
		Clients:      clients,
		Workers:      serve.DefaultWorkers,
		Hits:         counters[serve.CounterHits],
		Misses:       counters[serve.CounterMisses],
		Coalesced:    counters[serve.CounterCoalesced],
		Rejected:     counters[serve.CounterRejected],
		Plans:        counters[serve.CounterPlans],
		BitIdentical: identical.Load(),
	}
	panel.OpLogConsistent = oplogMatchesCounters(&oplogBuf, panel)
	return panel, nil
}

// oplogMatchesCounters cross-checks the run's op-log stream against the
// panel's registry counters: one record per request and per-disposition
// counts exactly equal.
func oplogMatchesCounters(stream *bytes.Buffer, p *BenchServe) bool {
	_, recs, err := oplog.Read(stream)
	if err != nil {
		return false
	}
	sum := oplog.Summarize(recs, 0)
	return sum.Records == p.Requests &&
		int64(sum.ByDisp[oplog.DispHit]) == p.Hits &&
		int64(sum.ByDisp[oplog.DispMiss]) == p.Misses &&
		int64(sum.ByDisp[oplog.DispCoalesced]) == p.Coalesced &&
		int64(sum.ByDisp[oplog.DispRejected]) == p.Rejected &&
		sum.ByDisp[oplog.DispTimeout] == 0 &&
		sum.ByDisp[oplog.DispError] == 0
}
