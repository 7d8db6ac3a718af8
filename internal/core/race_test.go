//go:build race

package core

// The race detector's sync.Pool drops a share of what is put back, so
// allocation counts that lean on pooled frames only hold without it.
func init() { raceEnabled = true }
