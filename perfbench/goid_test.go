package main

import (
	"sync"
	"testing"
)

func TestGoidDistinguishesGoroutines(t *testing.T) {
	if goid() != goid() {
		t.Fatal("goid unstable within one goroutine")
	}
	ids := make([]uint64, 8)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = goid()
			start.Wait()
		}(i)
	}
	start.Done()
	wg.Wait()
	seen := map[uint64]bool{goid(): true}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("goroutines share id %d", id)
		}
		seen[id] = true
	}
}
