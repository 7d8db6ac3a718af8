// Package leakcheck fails a test binary whose goroutines outlive its tests.
// A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, Main waits up to Settle for the goroutine count to
// fall back to what it was before the first test, then fails the binary
// with every goroutine's stack. A goroutine still running then is a fixture
// or a Close that does not end what it started.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Settle bounds how long goroutines may take to exit after the last test.
const Settle = 2 * time.Second

// Main runs the package's tests, checks for leftover goroutines, and exits.
func Main(m *testing.M) {
	start := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := settle(start); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// settle waits for the goroutine count to return to start.
func settle(start int) error {
	deadline := time.Now().Add(Settle)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leakcheck: %d goroutines %v after the tests, %d before them:\n\n%s",
				runtime.NumGoroutine(), Settle, start, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
