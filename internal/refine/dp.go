package refine

import (
	"sort"
	"strings"

	"xrefine/internal/rules"
)

// This file implements getOptimalRQ (Section V): given the original query
// Q = S and a set T of keywords that actually occur in (some region of) the
// data, find the refined query RQ ⊆ T with minimum dissimilarity dSim(Q,RQ)
// under the rule set, by dynamic programming over prefixes of Q
// (Formula 11):
//
//	C[0] = 0
//	C[i] = min( C[i-1]            if k_i ∈ T        (option 1: keep)
//	          , C[i-1] + del      always            (option 2: delete)
//	          , C[i-|LHS(r)|]+ds_r for each rule r with LHS a suffix of
//	                               S[1..i] and RHS ⊆ T  (option 3) )
//
// The top-2K extension keeps the best partial refinements per cell instead
// of a single one — the paper's "intermediate results kept during the
// processing of getOptimalRQ" made precise. It is a beam search: like the
// paper's, it surfaces *some* (not provably all) of the best non-optimal
// candidates, but the single best is exact.

// Step records one refinement operation applied to produce an RQ — the
// provenance a user-facing "did you mean" needs ("corrected databse →
// database", "deleted fuzzy"). Kept keywords are not recorded; only
// changes are.
type Step struct {
	// Delete is the deleted query keyword when the step is a deletion;
	// empty for rule applications.
	Delete string
	// Rule is the applied refinement rule for non-deletion steps.
	Rule *rules.Rule
}

// String renders the step for humans.
func (s Step) String() string {
	if s.Delete != "" {
		return "delete " + s.Delete
	}
	if s.Rule != nil {
		return s.Rule.String()
	}
	return "?"
}

// partial is one candidate refinement of a query prefix.
type partial struct {
	cost  float64
	keys  []string // sorted unique keywords produced so far
	key   string   // canonical identity of keys
	steps []Step   // provenance, in application order
}

func mkPartial(cost float64, keys []string) partial {
	ks := canonical(keys)
	return partial{cost: cost, keys: ks, key: strings.Join(ks, "\x00")}
}

// extend returns p with extra keywords added, cost increased, and the
// step (when non-zero) appended to the provenance.
func (p partial) extend(dCost float64, step Step, extra ...string) partial {
	steps := p.steps
	if step.Delete != "" || step.Rule != nil {
		steps = append(append([]Step(nil), p.steps...), step)
	}
	if len(extra) == 0 {
		return partial{cost: p.cost + dCost, keys: p.keys, key: p.key, steps: steps}
	}
	keys := append(append([]string(nil), p.keys...), extra...)
	out := mkPartial(p.cost+dCost, keys)
	out.steps = steps
	return out
}

// TopRQs runs the top-m dynamic program: up to m distinct refined queries
// over the available keyword set, cheapest first. Results are guaranteed
// non-empty keyword sets (a refinement that deletes everything matches
// nothing and is not a query). The cheapest result is exactly optimal.
func TopRQs(q []string, avail map[string]bool, rs *rules.Set, m int) []RQ {
	// Beam width: double the requested width so near-misses at inner
	// cells can still surface distinct final candidates. The beam-width
	// ablation (xbench ablation-beam) measures what this choice costs in
	// candidate recall.
	return TopRQsBeam(q, avail, rs, m, 2*m)
}

// TopRQsBeam is TopRQs with an explicit per-cell beam width, exposed for
// the beam ablation. beam < m is clamped to m.
func TopRQsBeam(q []string, avail map[string]bool, rs *rules.Set, m, beam int) []RQ {
	if m < 1 {
		m = 1
	}
	if beam < m {
		beam = m
	}
	cells := make([][]partial, len(q)+1)
	cells[0] = []partial{mkPartial(0, nil)}
	for i := 1; i <= len(q); i++ {
		ki := q[i-1]
		var next []partial
		// Option 1: keep k_i when the data has it.
		if avail[ki] {
			for _, p := range cells[i-1] {
				next = append(next, p.extend(0, Step{}, ki))
			}
		}
		// Option 2: delete k_i. Always available; this is what makes a
		// refinement exist for every query.
		for _, p := range cells[i-1] {
			next = append(next, p.extend(rs.DeleteCost, Step{Delete: ki}))
		}
		// Option 3: apply a rule whose LHS ends at k_i and matches the
		// preceding keywords, with every RHS keyword available.
		for _, r := range rs.ByLastLHS(ki) {
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
		cells[i] = prune(next, beam)
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

func matchesSuffix(prefix, lhs []string) bool {
	off := len(prefix) - len(lhs)
	for j, k := range lhs {
		if prefix[off+j] != k {
			return false
		}
	}
	return true
}

// prune dedups partials by keyword set (keeping the cheapest) and trims to
// the beam width, cheapest first with deterministic tie-breaking.
func prune(ps []partial, beam int) []partial {
	best := make(map[string]partial, len(ps))
	for _, p := range ps {
		if old, ok := best[p.key]; !ok || p.cost < old.cost {
			best[p.key] = p
		}
	}
	out := make([]partial, 0, len(best))
	for _, p := range best {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cost != out[j].cost {
			return out[i].cost < out[j].cost
		}
		// Prefer keeping more keywords (less information loss), then
		// lexicographic identity for determinism.
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
