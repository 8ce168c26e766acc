package main

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted, and the number of samples it was taken over. The
// nearest rank is ceil(p/100 * n); an empty input gives (0, 0).
func percentile(sorted []int64, p float64) (int64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile: the tail a reported p99 rests on.
func beyond(sorted []int64, p float64) int {
	v, n := percentile(sorted, p)
	i, _ := slices.BinarySearch(sorted, v+1)
	return n - i
}

// sortedInts returns a sorted copy.
func sortedInts(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, ivs []span) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, s := range ivs {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover, each instant counted once.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent.start, parent.end, children)
}

// byTxn groups spans by transaction id.
func byTxn(spans []span) map[core.TxnID][]span {
	m := make(map[core.TxnID][]span)
	for _, s := range spans {
		m[s.txn] = append(m[s.txn], s)
	}
	return m
}

// isChild reports whether a span sits below the client layer: a
// scheduler or decision-log call made on a transaction's behalf.
func isChild(s span) bool { return s.layer == layerCore || s.layer == layerFault }

// selfSum adds up the self time of every client-layer span of op o,
// children being the same transaction's core and fault spans. It also
// returns how many such spans there were.
func selfSum(groups map[core.TxnID][]span, l layer, o op) (sum int64, n int) {
	var kids []span
	for _, g := range groups {
		kids = kids[:0]
		for _, s := range g {
			if isChild(s) {
				kids = append(kids, s)
			}
		}
		for _, s := range g {
			if s.layer == l && s.op == o {
				sum += selfTime(s, kids)
				n++
			}
		}
	}
	return sum, n
}

// durations collects the durations of the spans of (l, o), sorted.
func durations(spans []span, l layer, o op) []int64 {
	var out []int64
	for _, s := range spans {
		if s.layer == l && s.op == o {
			out = append(out, s.dur())
		}
	}
	slices.Sort(out)
	return out
}

// attribution explains the p50 transaction: for every logical
// transaction whose commit wait lies between the 45th and 55th
// percentile of lat, it sums the part of the wait that the spans of
// the counted layers cover, plus perRPC for each core call that was a
// round trip to a daemon (the site transport, which no span times).
// The result is the share of the band's total wait left unexplained.
func attribution(records []txnRecord, lat []int64, groups map[core.TxnID][]span, counted func(span) bool, perRPC float64) (unattributed float64, n int) {
	sorted := sortedInts(lat)
	lo, _ := percentile(sorted, 45)
	hi, _ := percentile(sorted, 55)
	var total, explained float64
	var in []span
	for _, r := range records {
		w := r.end - r.start
		if w < lo || w > hi {
			continue
		}
		in = in[:0]
		rpcs := 0
		for _, id := range r.ids {
			for _, s := range groups[id] {
				if s.end <= r.start || s.start >= r.end || !counted(s) {
					continue
				}
				in = append(in, s)
				if s.layer == layerCore && slices.Contains(rpcOps, s.op) {
					rpcs++
				}
			}
		}
		e := float64(covered(r.start, r.end, in)) + perRPC*float64(rpcs)
		total += float64(w)
		explained += min(e, float64(w))
		n++
	}
	if total == 0 {
		return 0, 0
	}
	return (total - explained) / total, n
}

// failedFrac is the share of attempted logical transactions that
// failed: refused, ended in a non-retryable error, or hit the restart
// cap.
func failedFrac(failed, attempted uint64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio divides, reading 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta is what a histogram observed between two snapshots.
func histDelta(after, before telemetry.HistSnapshot) telemetry.HistSnapshot {
	d := telemetry.HistSnapshot{Sum: after.Sum - before.Sum, Count: after.Count - before.Count}
	for i := range d.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
	}
	return d
}

// histQuantile estimates the q-quantile of a power-of-two histogram
// (bucket i holds values of bit length i) by interpolating linearly
// inside the bucket the rank falls in. The program's own Quantile
// returns the bucket's upper bound, which reads the same on every run.
func histQuantile(s telemetry.HistSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return math.Ldexp(1, len(s.Counts)-1)
}
