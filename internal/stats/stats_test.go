package stats

import (
	"math"
	"strings"
	"testing"
)

func TestDistribution(t *testing.T) {
	d := NewDistribution()
	if d.Total() != 0 || d.Share("x") != 0 {
		t.Fatal("empty distribution should have zero total and shares")
	}
	d.AddCount("building")
	d.AddCount("building")
	d.Add("transport", 2)
	d.Add("forest", 0) // ignored
	d.Add("forest", -3)
	if d.Total() != 4 {
		t.Fatalf("Total = %v", d.Total())
	}
	if d.Count("building") != 2 || d.Share("building") != 0.5 {
		t.Fatalf("building share = %v", d.Share("building"))
	}
	if d.Share("missing") != 0 {
		t.Fatal("missing category share should be 0")
	}
	cats := d.Categories()
	if len(cats) != 2 {
		t.Fatalf("Categories = %v", cats)
	}
	// Equal weights sort by name; both have weight 2.
	if cats[0] != "building" || cats[1] != "transport" {
		t.Fatalf("Categories order = %v", cats)
	}
	if got := d.TopN(1); len(got) != 1 {
		t.Fatalf("TopN(1) = %v", got)
	}
	if got := d.TopN(10); len(got) != 2 {
		t.Fatalf("TopN(10) = %v", got)
	}
	shares := d.Shares()
	if math.Abs(shares["building"]+shares["transport"]-1) > 1e-9 {
		t.Fatalf("Shares = %v", shares)
	}
	if s := d.String(); !strings.Contains(s, "building=50.0%") {
		t.Fatalf("String = %q", s)
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(1)
	for _, v := range []float64{1, 5, 9, 15, 99, 150, 1500, 0, -3} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	bins := h.Bins()
	if len(bins) != 4 {
		t.Fatalf("bins = %+v", bins)
	}
	// Decade bins: [1,10): 3 values, [10,100): 2, [100,1000): 1, [1000,..): 1.
	wantCounts := []int{3, 2, 1, 1}
	wantLowers := []float64{1, 10, 100, 1000}
	for i, b := range bins {
		if b.Count != wantCounts[i] || math.Abs(b.Lower-wantLowers[i]) > 1e-9 {
			t.Fatalf("bin %d = %+v", i, b)
		}
	}
	// Higher resolution.
	h2 := NewLogHistogram(2)
	h2.Add(1)
	h2.Add(3) // sqrt(10)≈3.16 boundary: 3 -> bin 0, 4 -> bin 1
	h2.Add(4)
	if got := len(h2.Bins()); got != 2 {
		t.Fatalf("2-bin-per-decade bins = %d", got)
	}
	// Invalid resolution clamps to 1.
	h3 := NewLogHistogram(0)
	if h3.BinsPerDecade != 1 {
		t.Fatalf("BinsPerDecade = %d", h3.BinsPerDecade)
	}
}

func TestCompressionRatio(t *testing.T) {
	if got := CompressionRatio(1000, 3); math.Abs(got-0.997) > 1e-9 {
		t.Fatalf("CompressionRatio = %v", got)
	}
	if CompressionRatio(0, 5) != 0 {
		t.Fatal("zero original should give 0")
	}
	if CompressionRatio(10, 20) != 0 {
		t.Fatal("negative saving should clamp to 0")
	}
	if CompressionRatio(10, 0) != 1 {
		t.Fatal("full compression should give 1")
	}
}
