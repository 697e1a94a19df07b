// Package region implements SeMiTri's Semantic Region Annotation Layer
// (§4.1, Algorithm 1): a spatial join between trajectories (GPS records or
// stop/move episodes) and semantic regions — land-use cells and free-form
// named regions — producing the coarse-grained structured semantic
// trajectory Tregion. The land-use distributions of Figs. 9 and 14 are
// computed from the stored tuples by internal/analytics.
//
// All spatial work goes through the shared spatial layer: rectangle joins
// against the cell raster walk the map's grid (Map.VisitCells), named
// regions come from the map's STR tree over their bounding boxes, and point
// location is O(1) arithmetic on the raster's spatial.Grid
// accelerated by the per-object last-cell cache (Cursor) that exploits GPS
// locality — consecutive records rarely leave a 100 m cell.
//
// Ingestion calls the cursored AnnotateTrajectoryCursor and
// AnnotateEpisodesCursor. The uncursored AnnotateTrajectory and
// AnnotateEpisodes are the reference implementation the parity tests compare
// the cached path against; they have no production caller on purpose.
package region

import (
	"errors"
	"fmt"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/landuse"
	"semitri/internal/stats"
)

// Annotator joins trajectory data with a land-use map. It is safe for
// concurrent use once constructed (the map is read-only); Cursors are
// per-goroutine.
type Annotator struct {
	landUse *landuse.Map
}

// NewAnnotator returns an annotator over the given land-use map.
func NewAnnotator(m *landuse.Map) (*Annotator, error) {
	if m == nil {
		return nil, errors.New("region: nil land-use map")
	}
	return &Annotator{landUse: m}, nil
}

// Cursor is the per-object locality cache of the region layer: the last
// land-use cell a record resolved to. Not safe for concurrent use; keep one
// per moving object.
type Cursor struct {
	cell landuse.Cursor
}

// NewCursor returns an empty locality cursor for the annotator.
func (a *Annotator) NewCursor() *Cursor { return &Cursor{} }

// Stats returns the cell-cache hit/miss counters.
func (c *Cursor) Stats() (hits, misses uint64) { return c.cell.Stats() }

// cellAt resolves the cell containing p through the cursor (nil = uncached).
func (a *Annotator) cellAt(p geo.Point, cur *Cursor) (landuse.Cell, bool) {
	if cur == nil {
		return a.landUse.CellAt(p)
	}
	return a.landUse.CellAtCursor(p, &cur.cell)
}

// placeForCell builds the semantic place record for a land-use cell.
func placeForCell(c landuse.Cell) *core.Place {
	return &core.Place{
		ID:       fmt.Sprintf("cell-%d", c.ID),
		Kind:     core.RegionPlace,
		Name:     c.Category.Label(),
		Category: string(c.Category),
		Extent:   c.Extent,
	}
}

// AnnotateTrajectory implements Algorithm 1 on the raw GPS records: every
// record is joined with the land-use cell containing it, consecutive records
// falling in cells of the same category are grouped into a single tuple
// (lines 10-11 of the algorithm), and the enter/leave times are taken from
// the first and last record of the group. Records outside the map extent
// produce unlinked tuples so the trajectory still covers its whole duration.
func (a *Annotator) AnnotateTrajectory(t *gps.RawTrajectory) (*core.StructuredTrajectory, error) {
	return a.AnnotateTrajectoryCursor(t, nil)
}

// AnnotateTrajectoryCursor is AnnotateTrajectory with a per-object locality
// cursor; lc may be nil. Cached and uncached results are identical.
func (a *Annotator) AnnotateTrajectoryCursor(t *gps.RawTrajectory, lc *Cursor) (*core.StructuredTrajectory, error) {
	if t == nil || len(t.Records) == 0 {
		return nil, errors.New("region: empty trajectory")
	}
	out := &core.StructuredTrajectory{ID: t.ID, ObjectID: t.ObjectID, Interpretation: "region"}
	var cur *core.EpisodeTuple
	var curCategory landuse.Category
	var haveCur bool
	flush := func() {
		if cur != nil {
			out.Tuples = append(out.Tuples, cur)
			cur = nil
			haveCur = false
		}
	}
	for _, rec := range t.Records {
		cell, ok := a.cellAt(rec.Position, lc)
		if !ok {
			// Outside the map: close the current group and emit an unlinked tuple.
			flush()
			out.Tuples = append(out.Tuples, &core.EpisodeTuple{
				Kind: episode.Move, TimeIn: rec.Time, TimeOut: rec.Time,
			})
			continue
		}
		if haveCur && cell.Category == curCategory {
			cur.TimeOut = rec.Time
			continue
		}
		flush()
		cur = &core.EpisodeTuple{
			Kind:    episode.Move,
			Place:   placeForCell(cell),
			TimeIn:  rec.Time,
			TimeOut: rec.Time,
		}
		cur.Annotations.Add(core.Annotation{
			Key: core.AnnLanduse, Value: string(cell.Category), Confidence: 1, Source: "region",
		}, core.Annotation{
			Key: core.AnnLanduseTop, Value: cell.Category.TopLevel(), Confidence: 1, Source: "region",
		})
		curCategory = cell.Category
		haveCur = true
	}
	flush()
	return out, nil
}

// AnnotateEpisodes joins stop/move episodes with the land-use map using the
// spatial predicates of §4.1: the episode centre for stops (spatial
// subsumption) and the bounding rectangle for moves (intersection, annotated
// with the dominant category among intersected cells). Named free-form
// regions covering the episode are attached under AnnNamedRegion.
func (a *Annotator) AnnotateEpisodes(eps []*episode.Episode) ([]*core.EpisodeTuple, error) {
	return a.AnnotateEpisodesCursor(eps, nil)
}

// AnnotateEpisodesCursor is AnnotateEpisodes with a per-object locality
// cursor; cur may be nil. Cached and uncached results are identical.
func (a *Annotator) AnnotateEpisodesCursor(eps []*episode.Episode, cur *Cursor) ([]*core.EpisodeTuple, error) {
	if len(eps) == 0 {
		return nil, errors.New("region: no episodes")
	}
	out := make([]*core.EpisodeTuple, 0, len(eps))
	for _, ep := range eps {
		tuple := &core.EpisodeTuple{
			Kind:    ep.Kind,
			TimeIn:  ep.Start,
			TimeOut: ep.End,
			Episode: ep,
		}
		var cat landuse.Category
		var found bool
		if ep.Kind == episode.Stop {
			if cell, ok := a.cellAt(ep.Center, cur); ok {
				tuple.Place = placeForCell(cell)
				cat, found = cell.Category, true
			}
		} else {
			// Spatial join of the move's bounding rectangle with the raster,
			// in ascending cell-id order.
			var firstCell landuse.Cell
			n := 0
			dist := stats.NewDistribution()
			a.landUse.VisitCells(ep.Bounds, func(c landuse.Cell) bool {
				if n == 0 {
					firstCell = c
				}
				n++
				dist.AddCount(string(c.Category))
				return true
			})
			if n > 0 {
				top := dist.TopN(1)[0]
				cat, found = landuse.Category(top), true
				// Link the place to the cell containing the episode centre
				// when possible, otherwise to the first intersected cell.
				if cell, ok := a.cellAt(ep.Center, cur); ok {
					tuple.Place = placeForCell(cell)
				} else {
					tuple.Place = placeForCell(firstCell)
				}
			}
		}
		if found {
			tuple.Annotations.Add(core.Annotation{
				Key: core.AnnLanduse, Value: string(cat), Confidence: 1, Source: "region",
			}, core.Annotation{
				Key: core.AnnLanduseTop, Value: cat.TopLevel(), Confidence: 1, Source: "region",
			})
		}
		// Named free-form regions (campus, recreation ...) covering the episode.
		var named []landuse.NamedRegion
		if ep.Kind == episode.Stop {
			named = a.landUse.NamedRegionsAt(ep.Center)
		} else {
			named = a.landUse.NamedRegionsIntersecting(ep.Bounds)
		}
		if len(named) > 0 {
			tuple.Annotations.Add(core.Annotation{
				Key: core.AnnNamedRegion, Value: named[0].Name, Confidence: 1, Source: "region",
			})
		}
		out = append(out, tuple)
	}
	return out, nil
}
