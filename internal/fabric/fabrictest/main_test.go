package fabrictest

import (
	"testing"

	"uavmw/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
