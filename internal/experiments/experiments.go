// Package experiments contains the harness that regenerates every table and
// figure of the paper's evaluation (§5) on the synthetic stand-in datasets:
// Table 1/2 (dataset inventories), Fig. 9/14 (land-use distributions),
// Fig. 10 (map-matching sensitivity), Fig. 11 (stop/trajectory categories),
// Fig. 12/13 (episode statistics), Fig. 15/16 (transport-mode annotation of
// commutes), Fig. 17 (latency breakdown), the §5.2 storage-compression claim
// and two ablations (global vs nearest map matching, HMM vs nearest-POI stop
// annotation). Performance numbers live in bench/ and the root Go
// benchmarks.
//
// Every experiment takes an Env (a seeded synthetic city plus a scale
// factor) so the harness is deterministic and its cost can be tuned; the
// rows it returns are printed by cmd/semitri-bench and exercised by the
// package-level benchmarks in the repository root.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"semitri"
	"semitri/internal/workload"
)

// Env is the shared environment of an experiment run.
type Env struct {
	// Seed drives every generator used by the experiments.
	Seed int64
	// Scale multiplies the default workload sizes (1.0 is each experiment's
	// full size; smaller values run faster).
	Scale float64
	// City is the synthetic environment shared by all experiments.
	City *workload.City
}

// NewEnv builds the default experiment environment: a 10 km x 10 km city
// with a Milan-like POI set of about 8,000 POIs.
func NewEnv(seed int64, scale float64) (*Env, error) {
	if scale <= 0 {
		scale = 1
	}
	poiCount := int(8000 * scale)
	if poiCount < 500 {
		poiCount = 500
	}
	city, err := workload.NewCity(workload.DefaultCityConfig(seed, poiCount))
	if err != nil {
		return nil, err
	}
	return &Env{Seed: seed, Scale: scale, City: city}, nil
}

func (e *Env) scaleInt(base int) int {
	v := int(float64(base) * e.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Row is one printable output row of an experiment: a label plus named
// numeric columns (printed in the order of Columns).
type Row struct {
	Label   string
	Columns []string
	Values  map[string]float64
}

// Table is a printable experiment result.
type Table struct {
	ID    string
	Title string
	Rows  []Row
	// Notes records the paper-reported reference values or qualitative
	// expectations the rows are compared against.
	Notes []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-34s", r.Label)
		for _, c := range r.Columns {
			fmt.Fprintf(&b, " %s=%.4g", c, r.Values[c])
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// sortedKeys returns map keys sorted by descending value then name, used to
// emit distribution rows in a stable, readable order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// runPipeline processes a dataset through a fresh pipeline with the given
// configuration and returns the pipeline together with its result.
func runPipeline(env *Env, ds *workload.Dataset, cfg semitri.Config) (*semitri.Pipeline, *semitri.Result, error) {
	p, err := semitri.New(semitri.Sources{
		Landuse: env.City.Landuse,
		Roads:   env.City.Roads,
		POIs:    env.City.POIs,
	}, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := p.ProcessRecords(ds.Records())
	if err != nil {
		return nil, nil, err
	}
	return p, res, nil
}

// Registry maps experiment ids (as accepted by cmd/semitri-bench -exp) to
// the functions that regenerate them.
var Registry = map[string]func(*Env) (*Table, error){
	"table1":            Table1,
	"table2":            Table2,
	"fig9":              Fig9,
	"fig10":             Fig10,
	"fig11":             Fig11,
	"fig12":             Fig12,
	"fig13":             Fig13,
	"fig14":             Fig14,
	"fig15":             Fig15,
	"fig17":             Fig17,
	"compression":       Compression,
	"ablation-mapmatch": AblationMapMatching,
	"ablation-hmm":      AblationHMM,
}

// Order lists the experiment ids in presentation order (the order of §5).
var Order = []string{
	"table1", "table2", "fig9", "fig10", "fig11", "fig12", "fig13",
	"fig14", "fig15", "fig17", "compression", "ablation-mapmatch", "ablation-hmm",
}
