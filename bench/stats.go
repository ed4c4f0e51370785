package main

import "sort"

// metric is one reported number: the median of the per-round values in
// Rounds, or a statistic of all rounds' samples pooled, in which case
// Samples counts them and Rounds holds the same statistic of each round.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Rounds  []float64 `json:"rounds,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

type metricSet map[string]metric

// put records the median of per-round values.
func (m metricSet) put(name, unit string, rounds []float64) {
	m[name] = metric{Value: median(rounds), Unit: unit, Rounds: rounds}
}

// pooled records a statistic of all rounds' samples taken together.
func (m metricSet) pooled(name, unit string, v float64, samples int, rounds []float64) {
	m[name] = metric{Value: v, Unit: unit, Rounds: rounds, Samples: samples}
}

// one records a single measured value.
func (m metricSet) one(name, unit string, v float64) {
	m[name] = metric{Value: v, Unit: unit}
}

// spread is the min–max range of the per-round values as a share of the
// reported value; 0 when there are fewer than two rounds.
func (m metric) spread() float64 {
	if len(m.Rounds) < 2 || m.Value == 0 {
		return 0
	}
	lo, hi := m.Rounds[0], m.Rounds[0]
	for _, v := range m.Rounds {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	s := (hi - lo) / m.Value
	if s < 0 {
		s = -s
	}
	return s
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s, n := sorted(v), len(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(p*float64(len(asc))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
