package refine

import (
	"sort"
	"strings"

	"xrefine/internal/rules"
)

// refTopRQsBeam is the string-keyed top-2K beam the bitset DP replaced,
// kept verbatim as the differential reference: every partial carries its
// canonical keyword slice, a "\x00"-joined identity key and a copied step
// slice, and every cell is deduplicated through a map and sorted.
func refTopRQsBeam(q []string, avail map[string]bool, rs *rules.Set, m, beam int) []RQ {
	if m < 1 {
		m = 1
	}
	if beam < m {
		beam = m
	}
	cells := make([][]refPartial, len(q)+1)
	cells[0] = []refPartial{refMkPartial(0, nil)}
	for i := 1; i <= len(q); i++ {
		ki := q[i-1]
		var next []refPartial
		if avail[ki] {
			for _, p := range cells[i-1] {
				next = append(next, p.extend(0, Step{}, ki))
			}
		}
		for _, p := range cells[i-1] {
			next = append(next, p.extend(rs.DeleteCost, Step{Delete: ki}))
		}
		for _, j := range rs.ByLastLHS(ki) {
			r := *rs.Rule(j)
			n := len(r.LHS)
			if n > i || !matchesSuffix(q[:i], r.LHS) {
				continue
			}
			ok := true
			for _, k := range r.RHS {
				if !avail[k] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rule := r
			for _, p := range cells[i-n] {
				next = append(next, p.extend(r.Score, Step{Rule: &rule}, r.RHS...))
			}
		}
		cells[i] = refPrune(next, beam)
	}
	var out []RQ
	for _, p := range cells[len(q)] {
		if len(p.keys) == 0 {
			continue
		}
		out = append(out, RQ{Keywords: p.keys, DSim: p.cost, Steps: p.steps})
		if len(out) == m {
			break
		}
	}
	return out
}

type refPartial struct {
	cost  float64
	keys  []string
	key   string
	steps []Step
}

func refMkPartial(cost float64, keys []string) refPartial {
	ks := canonical(keys)
	return refPartial{cost: cost, keys: ks, key: strings.Join(ks, "\x00")}
}

func (p refPartial) extend(dCost float64, step Step, extra ...string) refPartial {
	steps := p.steps
	if step.Delete != "" || step.Rule != nil {
		steps = append(append([]Step(nil), p.steps...), step)
	}
	if len(extra) == 0 {
		return refPartial{cost: p.cost + dCost, keys: p.keys, key: p.key, steps: steps}
	}
	keys := append(append([]string(nil), p.keys...), extra...)
	out := refMkPartial(p.cost+dCost, keys)
	out.steps = steps
	return out
}

func refPrune(ps []refPartial, beam int) []refPartial {
	best := make(map[string]refPartial, len(ps))
	for _, p := range ps {
		if old, ok := best[p.key]; !ok || p.cost < old.cost {
			best[p.key] = p
		}
	}
	out := make([]refPartial, 0, len(best))
	for _, p := range best {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cost != out[j].cost {
			return out[i].cost < out[j].cost
		}
		if len(out[i].keys) != len(out[j].keys) {
			return len(out[i].keys) > len(out[j].keys)
		}
		return out[i].key < out[j].key
	})
	if len(out) > beam {
		out = out[:beam]
	}
	return out
}

func matchesSuffix(prefix, lhs []string) bool {
	off := len(prefix) - len(lhs)
	for j, k := range lhs {
		if prefix[off+j] != k {
			return false
		}
	}
	return true
}
