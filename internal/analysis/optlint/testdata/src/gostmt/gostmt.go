// Testdata for the gostmt analyzer: goroutines started outside the one
// worker pool.
package gostmt

import "sync"

func spawnLiteral(done chan<- struct{}) {
	go func() { // want `go statement outside internal/fanout`
		close(done)
	}()
}

func spawnNamed(wg *sync.WaitGroup) {
	wg.Add(1)
	go work(wg) // want `go statement outside internal/fanout`
}

func work(wg *sync.WaitGroup) { wg.Done() }

func inline(fn func()) {
	fn() // a plain call runs on the caller: no goroutine
}

func deferred(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock() // defer is not go
}

func waived(ready chan<- int) {
	//optlint:ignore gostmt demo: a reasoned waiver silences the finding on the next line
	go func() { ready <- 1 }()
}
