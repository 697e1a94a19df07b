// Package stats provides the small statistical toolkit used by SeMiTri's
// Semantic Trajectory Analytics Layer and by the experiment harness:
// category distributions (Figs. 9, 11, 14) and logarithmic histograms for
// the log-log plots of Fig. 12.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Distribution is a categorical distribution: share of observations (or of
// weight) per named category. It renders the per-category columns of
// Figs. 9, 11 and 14.
type Distribution struct {
	counts map[string]float64
	total  float64
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{counts: map[string]float64{}}
}

// Add increments the weight of a category.
func (d *Distribution) Add(category string, weight float64) {
	if weight <= 0 {
		return
	}
	d.counts[category] += weight
	d.total += weight
}

// AddCount increments a category by one observation.
func (d *Distribution) AddCount(category string) { d.Add(category, 1) }

// Total returns the total accumulated weight.
func (d *Distribution) Total() float64 { return d.total }

// Count returns the weight accumulated for a category.
func (d *Distribution) Count(category string) float64 { return d.counts[category] }

// Share returns the fraction of the total weight held by the category.
func (d *Distribution) Share(category string) float64 {
	if d.total == 0 {
		return 0
	}
	return d.counts[category] / d.total
}

// Categories returns the category names sorted by decreasing share.
func (d *Distribution) Categories() []string {
	out := make([]string, 0, len(d.counts))
	for c := range d.counts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if d.counts[out[i]] != d.counts[out[j]] {
			return d.counts[out[i]] > d.counts[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// TopN returns the n categories with the largest share (fewer when the
// distribution has fewer categories), as used for the per-user top-5
// land-use categories of Fig. 14.
func (d *Distribution) TopN(n int) []string {
	cats := d.Categories()
	if n < len(cats) {
		cats = cats[:n]
	}
	return cats
}

// Shares returns a map of category to share.
func (d *Distribution) Shares() map[string]float64 {
	out := make(map[string]float64, len(d.counts))
	for c := range d.counts {
		out[c] = d.Share(c)
	}
	return out
}

// String renders the distribution as "cat=share%" pairs sorted by share.
func (d *Distribution) String() string {
	var b strings.Builder
	for i, c := range d.Categories() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.1f%%", c, d.Share(c)*100)
	}
	return b.String()
}

// LogHistogram buckets positive values into logarithmic (base-10) bins, the
// representation behind the log-log plot of Fig. 12.
type LogHistogram struct {
	// BinsPerDecade controls resolution; 1 gives decade bins.
	BinsPerDecade int
	counts        map[int]int
	total         int
}

// NewLogHistogram returns an empty histogram with the given resolution.
func NewLogHistogram(binsPerDecade int) *LogHistogram {
	if binsPerDecade < 1 {
		binsPerDecade = 1
	}
	return &LogHistogram{BinsPerDecade: binsPerDecade, counts: map[int]int{}}
}

// Add records a value; non-positive values are ignored.
func (h *LogHistogram) Add(v float64) {
	if v <= 0 {
		return
	}
	bin := int(math.Floor(math.Log10(v) * float64(h.BinsPerDecade)))
	h.counts[bin]++
	h.total++
}

// Total returns the number of recorded values.
func (h *LogHistogram) Total() int { return h.total }

// Bin describes one histogram bin: the lower bound of the bin and its count.
type Bin struct {
	Lower float64
	Count int
}

// Bins returns the non-empty bins ordered by lower bound.
func (h *LogHistogram) Bins() []Bin {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Bin, len(keys))
	for i, k := range keys {
		out[i] = Bin{Lower: math.Pow(10, float64(k)/float64(h.BinsPerDecade)), Count: h.counts[k]}
	}
	return out
}

// CompressionRatio returns 1 - compressed/original, i.e. the storage saving
// reported in §5.2 ("99.7% storage compression"). It returns 0 when original
// is not positive.
func CompressionRatio(originalUnits, compressedUnits int) float64 {
	if originalUnits <= 0 {
		return 0
	}
	r := 1 - float64(compressedUnits)/float64(originalUnits)
	if r < 0 {
		return 0
	}
	return r
}
