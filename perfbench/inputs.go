package main

import (
	"fmt"

	"profitlb/internal/datacenter"
	"profitlb/internal/exp"
	"profitlb/internal/market"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// inputs is a planning workload's scenario.
type inputs struct {
	cfg sim.Config
	// mpc-defer only.
	horizon  int
	maxDefer []int
}

// splitmix64 is the SplitMix64 mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix derives an independent sub-seed from the workload seed and the
// parts naming its use.
func mix(seed int64, parts ...int64) int64 {
	x := splitmix64(uint64(seed))
	for _, p := range parts {
		x = splitmix64(x ^ uint64(p))
	}
	return int64(x >> 1)
}

// paperDays is how many distinct seeded days paper-day cycles through.
const paperDays = 8

// paperDayInputs is the paper's Section VI setup — 3 classes with
// one-level TUFs, 4 front-ends, 3 centers, the Tables IV–VI capacities,
// distances and energies and the Fig. 1 prices — over paperDays distinct
// World-Cup-like days drawn from the seed (Fig. 5's generator, one
// noise draw per front-end and day).
func paperDayInputs(seed int64) *inputs {
	ts := exp.NewTraceSetup()
	S, K := ts.Sys.S(), ts.Sys.K()
	traces := make([]*workload.Trace, S)
	for s := 0; s < S; s++ {
		tr := &workload.Trace{Name: ts.Sys.FrontEnds[s].Name}
		for d := 0; d < paperDays; d++ {
			base := workload.WorldCupLike(workload.WorldCupConfig{
				Seed: mix(seed, int64(s), int64(d)), Base: 650 + 100*float64(s), Slots: 24,
			})
			tr.Rates = append(tr.Rates, workload.ShiftTypes(tr.Name, base, K, 4).Rates...)
		}
		traces[s] = tr
	}
	return &inputs{cfg: sim.Config{Sys: ts.Sys, Traces: traces, Prices: ts.Prices, Slots: 24 * paperDays}}
}

// scaleDayInputs is a two-level-TUF topology of 4 classes × 6 front-ends
// × 6 centers, built like the abl9-scale experiment's generator
// (including its trace seeds 300+s), over one 24-slot diurnal day: the
// day the reference figures plan with warm start on and off. Its inputs
// are fixed: the planner's time on this topology swings 3.5× between
// noise draws of the same day (7 s to 27 s per day).
func scaleDayInputs() *inputs {
	const K, S, L = 4, 6, 6
	sys := &datacenter.System{}
	for k := 0; k < K; k++ {
		u := 10 + float64(k)*5
		sys.Classes = append(sys.Classes, datacenter.RequestClass{
			Name: fmt.Sprintf("t%d", k),
			TUF: tuf.MustNew([]tuf.Level{
				{Utility: u, Deadline: 0.004 + 0.001*float64(k)},
				{Utility: u * 0.4, Deadline: 0.02 + 0.005*float64(k)},
			}),
			TransferCostPerMile: 0.0002,
		})
	}
	for s := 0; s < S; s++ {
		dist := make([]float64, L)
		for l := range dist {
			dist[l] = 200 + 150*float64((s+l)%5)
		}
		sys.FrontEnds = append(sys.FrontEnds, datacenter.FrontEnd{Name: fmt.Sprintf("fe%d", s), DistanceMiles: dist})
	}
	for l := 0; l < L; l++ {
		mu := make([]float64, K)
		en := make([]float64, K)
		for k := 0; k < K; k++ {
			mu[k] = 1200 + 100*float64((k+l)%4)
			en[k] = 0.0004 + 0.0001*float64(k%3)
		}
		sys.Centers = append(sys.Centers, datacenter.DataCenter{
			Name: fmt.Sprintf("dc%d", l), Servers: 6, Capacity: 1, ServiceRate: mu, EnergyPerRequest: en,
		})
	}
	traces := make([]*workload.Trace, S)
	for s := 0; s < S; s++ {
		base := workload.WorldCupLike(workload.WorldCupConfig{Seed: int64(300 + s), Base: 400 * float64(L) / float64(S)})
		traces[s] = workload.ShiftTypes(sys.FrontEnds[s].Name, base, K, 3)
	}
	prices := make([]*market.PriceTrace, L)
	for l := 0; l < L; l++ {
		prices[l] = market.Synthetic(market.SyntheticConfig{
			Name: fmt.Sprintf("m%d", l), Seed: int64(l), PeakHour: float64(8 + 2*l%12),
		})
	}
	return &inputs{cfg: sim.Config{Sys: sys, Traces: traces, Prices: prices, Slots: 24}}
}

// mpcDeferInputs is the deferral study of the mpc1-priceshift experiment
// spread over the three Fig. 1 locations: a web class that must run in
// its arrival hour and an energy-heavy batch class (utility 5, 40 energy
// units per request) that loses money whenever a price crosses ~0.124
// $/kWh, at three front-ends each next to one center. Every center is
// loaded close to capacity by its own front-end, so batch work cannot
// dodge a local price spike by moving; the MPC planner (H=5, batch may
// wait 2 slots) holds it back instead. Inputs are constant per hour and
// do not depend on the seed: the workload's failed operations are the
// deferred requests the online path never drains, and their count must
// be the same in every run.
func mpcDeferInputs() *inputs {
	locs := market.Locations()
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.2}}), TransferCostPerMile: 0.0005},
			{Name: "batch", TUF: tuf.MustNew([]tuf.Level{{Utility: 5, Deadline: 1.0}}), TransferCostPerMile: 0.0005},
		},
	}
	for l, p := range locs {
		sys.Centers = append(sys.Centers, datacenter.DataCenter{
			Name: p.Name, Servers: 8, Capacity: 1,
			ServiceRate:      []float64{120, 100},
			EnergyPerRequest: []float64{1.0, 40},
		})
		dist := make([]float64, len(locs))
		for j := range dist {
			dist[j] = 1500
		}
		dist[l] = 100
		sys.FrontEnds = append(sys.FrontEnds, datacenter.FrontEnd{Name: "fe-" + p.Name, DistanceMiles: dist})
	}
	traces := make([]*workload.Trace, len(locs))
	for s := range traces {
		traces[s] = workload.Constant(sys.FrontEnds[s].Name, []float64{450, 300}, 24)
	}
	return &inputs{
		cfg:      sim.Config{Sys: sys, Traces: traces, Prices: locs, Slots: 24 * mpcDays},
		horizon:  5,
		maxDefer: []int{0, 2},
	}
}
