package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
)

// poolSize is how many pre-built values each topic cycles through. Inputs
// are built before the measured window so the generator's own share of
// allocations per op is one boxed sequence number, the same on every run.
const poolSize = 1024

// valuePool is one topic's pre-built inputs. send holds the maps handed to
// the middleware; the generator overwrites their sequence field before
// each use. want holds equal maps nobody writes, so callbacks on other
// goroutines can verify against them.
type valuePool struct{ send, want []map[string]any }

func newValuePool(send []map[string]any) valuePool {
	want := make([]map[string]any, len(send))
	for i, m := range send {
		want[i] = make(map[string]any, len(m))
		for k, v := range m {
			want[i][k] = v
		}
	}
	return valuePool{send: send, want: want}
}

// positionPool builds poolSize services.TypePosition values for one topic
// as a seeded random walk. tag travels in the fix field and identifies
// the topic (or the caller) to the tracing decorators; wp is overwritten
// with the sequence number at publish time.
func positionPool(rng *rand.Rand, tag uint8) valuePool {
	lat, lon := 41.0+rng.Float64(), 2.0+rng.Float64()
	alt, speed, heading := float32(100+rng.Float64()*400), float32(20+rng.Float64()*10), float32(rng.Float64()*360)
	pool := make([]map[string]any, poolSize)
	for i := range pool {
		lat += (rng.Float64() - 0.5) * 1e-4
		lon += (rng.Float64() - 0.5) * 1e-4
		alt += float32(rng.Float64()-0.5) * 2
		speed += float32(rng.Float64()-0.5) * 0.5
		heading += float32(rng.Float64()-0.5) * 3
		pool[i] = map[string]any{
			"lat": lat, "lon": lon, "alt": alt, "speed": speed, "heading": heading,
			"fix": tag, "wp": uint32(0), "complete": rng.Intn(16) == 0,
		}
	}
	return newValuePool(pool)
}

// valueMatches verifies every field of a received struct value against the
// pool entry it was published from; seqField is the field that carried
// the sequence number instead of the pool's placeholder.
func valueMatches(got, want map[string]any, seqField string, seq uint32) bool {
	if len(got) != len(want) || got[seqField] != seq {
		return false
	}
	for k, w := range want {
		if k != seqField && got[k] != w {
			return false
		}
	}
	return true
}

// detectionPool builds poolSize services.TypeDetection values; name is
// the topic, count is overwritten with the sequence number.
func detectionPool(rng *rand.Rand, topic string) valuePool {
	pool := make([]map[string]any, poolSize)
	for i := range pool {
		pool[i] = map[string]any{
			"name":  topic,
			"count": uint32(0),
			"x":     uint32(rng.Intn(4096)),
			"y":     uint32(rng.Intn(3072)),
			"score": rng.Float64(),
		}
	}
	return newValuePool(pool)
}

// fileBytes is the seeded file_bulk payload and its digest.
func fileBytes(rng *rand.Rand, n int) ([]byte, [sha256.Size]byte) {
	data := make([]byte, n)
	_, _ = rng.Read(data) // math/rand's Read never fails
	return data, sha256.Sum256(data)
}

func topicName(prefix string, i int) string { return fmt.Sprintf("%s.%d", prefix, i) }
