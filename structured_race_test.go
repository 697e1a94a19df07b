package semitri

import (
	"sync"
	"testing"

	"semitri/internal/analytics"
	"semitri/internal/core"
	"semitri/internal/workload"
)

// TestConcurrentStructuredRead reads the merged interpretation through
// Store.Structured in a loop while ProcessRecords ingests — what GET /stats
// does while semitri-serve ingests in the background. The reader walks every
// returned tuple's annotations with no lock held, while the point layer
// merges its annotations into stored tuples and later episodes append to the
// same trajectories; under -race this is the test that Structured's result
// shares nothing a writer goes on to write. Once ingest is done, a read must
// see the point layer's categories.
func TestConcurrentStructuredRead(t *testing.T) {
	city := sharedCity(t)
	people, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(3, 2, 17))
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := New(Sources{Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := pipeline.Store()
	done := make(chan struct{})
	var wg sync.WaitGroup
	reads := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			analytics.AnnotationDistribution(st, InterpretationMerged, core.AnnPOICategory)
			reads++
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	_, err = pipeline.ProcessRecords(people.Records())
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if reads == 0 {
		t.Fatal("the reader never ran")
	}
	if d := analytics.AnnotationDistribution(st, InterpretationMerged, core.AnnPOICategory); d.Total() == 0 {
		t.Fatal("no stop of the ingested store carries a POI category")
	}
}
