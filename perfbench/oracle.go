package main

import (
	"math"

	"profitlb/internal/core"
)

// profit re-derives paper Eq. 5 for a committed plan from its rates and
// the slot's prices, distances and TUF levels:
//
//	Σ_{k,q,s,l} λ·T·(U_{k,q} − P_{k,l}·PUE_l·p_l − TranCost_k·d_{s,l})
//
// minus the idle draw of the powered-on servers (zero in the paper's
// per-request energy model). Level q's utility is what the plan earns,
// because its delay must meet level q's deadline (checked by checkPlan).
func profit(in *core.Input, p *core.Plan) float64 {
	sys := in.Sys
	T := sys.Slot()
	var sum float64
	for l, n := range p.ServersOn {
		dc := &sys.Centers[l]
		pue := dc.PUE
		if pue <= 0 {
			pue = 1
		}
		sum -= dc.IdleEnergyPerServer * pue * in.Prices[l] * T * float64(n)
	}
	for k, byLevel := range p.Rate {
		cls := &sys.Classes[k]
		for q, byFE := range byLevel {
			u := cls.TUF.Level(q).Utility
			for s, byDC := range byFE {
				for l, v := range byDC {
					if v <= 0 {
						continue
					}
					dc := &sys.Centers[l]
					pue := dc.PUE
					if pue <= 0 {
						pue = 1
					}
					energy := dc.EnergyPerRequest[k] * pue * in.Prices[l]
					transfer := cls.TransferCostPerMile * sys.FrontEnds[s].DistanceMiles[l]
					sum += v * T * (u - energy - transfer)
				}
			}
		}
	}
	return sum
}

// checkPlan is the plan oracle. It checks a committed plan against its
// input apart from core.Verify: non-negative rates, the per-(class,
// front-end) arrival budgets of Eq. 7 (widened by budget, a deferring
// planner's backlog, when non-nil), the per-center CPU shares of Eq. 8,
// powered-on servers within the installed ones, every used commodity's
// M/M/1 delay 1/(φCμ − Λ/n) within its TUF level's deadline (Eqs. 1 and
// 6), and the plan's Objective against profit to 1e-6 relative.
func checkPlan(in *core.Input, p *core.Plan, budget [][]float64, c *checks) {
	sys := in.Sys
	K, S, L := sys.K(), sys.S(), sys.L()
	if len(p.Rate) != K || len(p.Phi) != L || len(p.ServersOn) != L {
		c.failf("slot %d: plan shaped %d×%d×%d for a %d×%d×%d system", in.Slot, len(p.Rate), len(p.Phi), len(p.ServersOn), K, S, L)
		return
	}
	const tol = 1e-6
	for k := 0; k < K; k++ {
		for s := 0; s < S; s++ {
			var sent float64
			for q := range p.Rate[k] {
				for l, v := range p.Rate[k][q][s] {
					if v < -1e-9 {
						c.failf("slot %d: negative rate %g at k=%d q=%d s=%d l=%d", in.Slot, v, k, q, s, l)
					}
					sent += v
				}
			}
			limit := in.Arrivals[s][k]
			if budget != nil {
				limit += budget[s][k]
			}
			if sent > limit+tol*math.Max(1, limit) {
				c.failf("slot %d: class %d front-end %d sends %g, arrival budget %g", in.Slot, k, s, sent, limit)
			}
		}
	}
	for l := 0; l < L; l++ {
		dc := &sys.Centers[l]
		n := p.ServersOn[l]
		if n < 0 || n > dc.Servers {
			c.failf("slot %d: center %d powers on %d of %d servers", in.Slot, l, n, dc.Servers)
		}
		var share float64
		for k := 0; k < K; k++ {
			levels := sys.Classes[k].TUF.Levels()
			for q, phi := range p.Phi[l][k] {
				if phi < -1e-9 {
					c.failf("slot %d: negative share %g at l=%d k=%d q=%d", in.Slot, phi, l, k, q)
				}
				share += phi
				var lam float64
				for s := 0; s < S; s++ {
					lam += p.Rate[k][q][s][l]
				}
				if lam <= 1e-9 {
					continue
				}
				if n == 0 {
					c.failf("slot %d: center %d serves %g of k=%d q=%d with no server on", in.Slot, l, lam, k, q)
					continue
				}
				slack := phi*dc.Capacity*dc.ServiceRate[k] - lam/float64(n)
				if slack <= 0 || 1/slack > levels[q].Deadline*(1+tol) {
					c.failf("slot %d: center %d k=%d q=%d delay %g over deadline %g", in.Slot, l, k, q, 1/slack, levels[q].Deadline)
				}
			}
		}
		if share > 1+tol {
			c.failf("slot %d: center %d shares sum to %g", in.Slot, l, share)
		}
	}
	if got := profit(in, p); math.Abs(got-p.Objective) > tol*math.Max(1, math.Abs(got)) {
		c.failf("slot %d: recomputed Eq. 5 profit %.9g, plan objective %.9g", in.Slot, got, p.Objective)
	}
}
