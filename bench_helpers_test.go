package uavmw

import (
	"time"

	"uavmw/internal/core"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// newBenchNode builds a container with fast discovery for benchmarks.
func newBenchNode(tr transport.Transport) (*core.Node, error) {
	return core.NewNode(
		core.WithDatagram(tr),
		core.WithAnnouncePeriod(50*time.Millisecond),
	)
}

func encodeBenchFrame(payload []byte, seq uint64) ([]byte, error) {
	return protocol.EncodeFrame(&protocol.Frame{
		Type:     protocol.MTEvent,
		Encoding: 1,
		Priority: qos.PriorityHigh,
		Channel:  "bench.topic",
		Seq:      seq,
		Payload:  payload,
	})
}

func decodeBenchFrame(raw []byte) (*protocol.Frame, error) {
	return protocol.DecodeFrame(raw)
}
