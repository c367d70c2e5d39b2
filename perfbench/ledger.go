package main

import (
	"math"

	"profitlb/internal/core"
)

// chunk is deferred work waiting in a FIFO: a request volume and the
// last slot it may be served in.
type chunk struct {
	vol      float64
	deadline int
}

// ledger is the benchmark's own account of deferrable work on the online
// path, kept apart from the planner's: one FIFO per (class, front-end),
// fed from each slot's input and committed plan. A deferrable class's
// arrivals the plan leaves unserved join the FIFO with a deadline
// maxDefer slots on; service beyond a slot's arrivals drains the oldest
// work first; work still queued at its deadline is lost. Work of a class
// with no deferral allowance that goes unserved is lost at once.
type ledger struct {
	maxDefer []int
	T        float64
	fifo     [][][]chunk // [k][s]
	// Per class, in requests, since the round began.
	offered, served, lost []float64
	// The round's deferrable requests offered and lost (the workload's
	// operations and failed operations).
	roundOffered int64
	roundLostVol float64
	// Totals over every round, in requests.
	deferredTotal, drainedTotal float64
	// plannerBacklog sums, per slot, the backlog the planner itself
	// reports holding (BacklogBudget), in requests.
	plannerBacklog float64
}

func newLedger(maxDefer []int, T float64) *ledger {
	return &ledger{maxDefer: maxDefer, T: T}
}

// beginRound empties the FIFOs and the per-round totals.
func (lg *ledger) beginRound() {
	K := len(lg.maxDefer)
	lg.fifo = make([][][]chunk, K)
	lg.offered, lg.served, lg.lost = make([]float64, K), make([]float64, K), make([]float64, K)
	lg.roundOffered, lg.roundLostVol = 0, 0
}

// commit books one slot.
func (lg *ledger) commit(in *core.Input, p *core.Plan, c *checks) {
	S := in.Sys.S()
	for k := range lg.maxDefer {
		if lg.fifo[k] == nil {
			lg.fifo[k] = make([][]chunk, S)
		}
		for s := 0; s < S; s++ {
			off := in.Arrivals[s][k] * lg.T
			srv := p.ServedFrom(k, s) * lg.T
			lg.offered[k] += off
			lg.served[k] += srv
			if lg.maxDefer[k] == 0 {
				lg.lost[k] += math.Max(0, off-srv)
				if srv > off*(1+1e-9)+1e-9 {
					c.failf("slot %d: class %d front-end %d serves %g of %g offered with nothing deferred", in.Slot, k, s, srv, off)
				}
				continue
			}
			lg.roundOffered += int64(math.Round(off))
			q := lg.fifo[k][s]
			switch {
			case srv < off:
				q = append(q, chunk{vol: off - srv, deadline: in.Slot + lg.maxDefer[k]})
				lg.deferredTotal += off - srv
			case srv > off:
				extra := srv - off
				for len(q) > 0 && extra > 0 {
					take := math.Min(extra, q[0].vol)
					q[0].vol -= take
					extra -= take
					lg.drainedTotal += take
					if q[0].vol <= 1e-9 {
						q = q[1:]
					}
				}
				if extra > 1e-6 {
					c.failf("slot %d: class %d front-end %d serves %g beyond its arrivals and backlog", in.Slot, k, s, extra)
				}
			}
			for len(q) > 0 && q[0].deadline <= in.Slot {
				lg.lost[k] += q[0].vol
				lg.roundLostVol += q[0].vol
				q = q[1:]
			}
			lg.fifo[k][s] = q
		}
	}
}

// backlog returns the volume of class k still queued.
func (lg *ledger) backlog(k int) float64 {
	var sum float64
	for _, q := range lg.fifo[k] {
		for _, ch := range q {
			sum += ch.vol
		}
	}
	return sum
}

// endRound checks conservation per class — offered = served + backlog +
// lost — and returns the round's failed operations: the deferrable
// requests lost at their deadline, plus those still queued when the
// round ends (the round's planner is gone, so nothing can serve them).
func (lg *ledger) endRound(c *checks) int64 {
	var left float64
	for k := range lg.maxDefer {
		bk := lg.backlog(k)
		if got := lg.served[k] + bk + lg.lost[k]; math.Abs(got-lg.offered[k]) > 1e-9*math.Max(1, lg.offered[k]) {
			c.failf("class %d: offered %.9g but served %.9g + backlog %.9g + lost %.9g = %.9g",
				k, lg.offered[k], lg.served[k], bk, lg.lost[k], got)
		}
		if lg.maxDefer[k] > 0 {
			left += bk
		}
	}
	return int64(math.Round(lg.roundLostVol + left))
}
