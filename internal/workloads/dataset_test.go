package workloads

import (
	"slices"
	"sync"
	"testing"
	"time"

	"pccsim/internal/graph"
)

// TestBuildDatasetBuildsEachGraphOnce races BuildDataset and Build callers
// for both variants of one dataset: the generator must run once, DBG must
// run once (over the cached unsorted graph), and every caller of a key must
// get the same graph.
func TestBuildDatasetBuildsEachGraphOnce(t *testing.T) {
	const scale = 9 // a key no other test builds
	forget := func() {
		dsMu.Lock()
		delete(dsCache, graphKey{DatasetSocial, scale, false})
		delete(dsCache, graphKey{DatasetSocial, scale, true})
		dsMu.Unlock()
	}
	forget()
	defer forget()
	var mu sync.Mutex
	builds := map[graphKey]int{}
	dsBuildHook = func(k graphKey) {
		mu.Lock()
		builds[k]++
		mu.Unlock()
		// Hold the build open so the other callers arrive while it is in
		// flight.
		time.Sleep(20 * time.Millisecond)
	}
	defer func() { dsBuildHook = nil }()

	const callers = 16
	got := make([]*graph.CSR, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sorted := i%2 == 1
			if i%4 < 2 {
				got[i], errs[i] = BuildDataset(DatasetSocial, scale, sorted)
				return
			}
			wl, err := Build(Spec{Name: "PR", Dataset: DatasetSocial, Scale: scale, Sorted: sorted})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = wl.(*graphApp).w.G
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for _, sorted := range []bool{false, true} {
		if n := builds[graphKey{DatasetSocial, scale, sorted}]; n != 1 {
			t.Errorf("sorted=%v built %d times, want 1", sorted, n)
		}
	}
	if len(builds) != 2 {
		t.Errorf("builds = %v, want exactly the two variants", builds)
	}
	for i := 2; i < callers; i++ {
		if got[i] != got[i%2] {
			t.Errorf("caller %d got a different graph than caller %d", i, i%2)
		}
	}
	if got[0] == got[1] {
		t.Error("sorted and unsorted variants share a graph")
	}
	want, _ := graph.DegreeBasedGrouping(got[0])
	if !slices.Equal(got[1].OutIndex, want.OutIndex) || !slices.Equal(got[1].OutNeighbor, want.OutNeighbor) ||
		!slices.Equal(got[1].InIndex, want.InIndex) || !slices.Equal(got[1].InNeighbor, want.InNeighbor) {
		t.Error("sorted variant is not DBG of the unsorted graph")
	}
}

func TestBuildDatasetUnknown(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		if _, err := BuildDataset("nope", testScale, sorted); err == nil {
			t.Errorf("sorted=%v: unknown dataset must error", sorted)
		}
	}
}
