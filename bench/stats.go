package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minP99Samples is the sample count below which a p99 is not reported: the
// 99th percentile needs at least ten samples beyond it to repeat.
const minP99Samples = 1000

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle of vs (mean of the two central values for an
// even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

// p99 returns the nearest-rank 99th percentile of ds, and false when ds has
// fewer than minP99Samples samples.
func p99(ds []time.Duration) (time.Duration, bool) {
	if len(ds) < minP99Samples {
		return 0, false
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(0.99 * float64(len(s))))
	return s[rank-1], true
}

// latencyMetrics adds <prefix>_p50_ms and, when the sample count allows it,
// <prefix>_p99_ms to out.
func latencyMetrics(out map[string]metric, prefix string, ds []time.Duration) {
	out[prefix+"_p50_ms"] = metric{ms(medianDur(ds)), "ms"}
	if v, ok := p99(ds); ok {
		out[prefix+"_p99_ms"] = metric{ms(v), "ms"}
	}
}

// keyGen yields the request-key sequence of the Bolt read workloads: indexes
// into the 4,000 Twitter users, Zipf(1.1)-distributed so a few hot users take
// most reads, fully determined by the seed.
type keyGen struct{ z *rand.Zipf }

func newKeyGen(seed int64) *keyGen {
	return &keyGen{z: rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, pointUsers-1)}
}

func (k *keyGen) next() int { return int(k.z.Uint64()) }

func screenName(i int) string { return fmt.Sprintf("user_%04d", i) }
