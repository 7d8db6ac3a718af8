//go:build race

package experiments

// The race detector's sync.Pool drops a share of what is put back, so
// allocation counts that lean on pooled buffers only repeat without it.
func init() { raceEnabled = true }
