package apps

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestReferenceComputesOncePerKey hammers Reference from many goroutines
// at once: each key's computation runs exactly once, every caller gets
// its value, and keys of different types never share an entry even when
// their fields are equal.
func TestReferenceComputesOncePerKey(t *testing.T) {
	type keyA struct{ run, n int64 }
	type keyB struct{ run, n int64 }
	run := testRuns.Add(1) // the cache outlives a test run: -count reruns need fresh keys
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(0); n < 4; n++ {
				a := Reference(keyA{run, n}, func() int64 { computes.Add(1); return 100 + n })
				b := Reference(keyB{run, n}, func() int64 { computes.Add(1); return 200 + n })
				if a != 100+n || b != 200+n {
					t.Errorf("key %d: got %d and %d, want %d and %d", n, a, b, 100+n, 200+n)
				}
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 8 {
		t.Fatalf("%d computations for 8 keys", got)
	}
}

var testRuns atomic.Int64
