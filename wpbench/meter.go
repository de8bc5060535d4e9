package main

import (
	"sync/atomic"
	"time"

	"weipipe/internal/comm"
)

// meteredTransport times and counts the calls a trainer makes into its
// comm.Transport. It forwards every optional interface the pipeline and
// comm layers probe for (comm.OwnedSender, comm.Meter, comm.CodecProvider,
// Flush and comm.Recoverer), with the same fallbacks comm.FaultTransport
// uses, so wrapping a transport changes neither the zero-copy path, the
// wire codec, nor the transport's own comm.Stats.
type meteredTransport struct {
	comm.Transport

	msgs   atomic.Int64 // messages handed to Send or SendOwned
	sendNs atomic.Int64 // time spent inside Send/SendOwned
	recvNs atomic.Int64 // time spent blocked inside Recv/RecvTimeout
}

func newMetered(t comm.Transport) *meteredTransport {
	return &meteredTransport{Transport: t}
}

// Send implements comm.Transport.
func (m *meteredTransport) Send(dst int, tag comm.Tag, data []float32) error {
	start := time.Now()
	err := m.Transport.Send(dst, tag, data)
	m.sendNs.Add(int64(time.Since(start)))
	m.msgs.Add(1)
	return err
}

// SendOwned implements comm.OwnedSender; comm.SendOwned falls back to a
// copying send when the wrapped transport has no donation path.
func (m *meteredTransport) SendOwned(dst int, tag comm.Tag, payload []float32) error {
	start := time.Now()
	err := comm.SendOwned(m.Transport, dst, tag, payload)
	m.sendNs.Add(int64(time.Since(start)))
	m.msgs.Add(1)
	return err
}

// Recv implements comm.Transport.
func (m *meteredTransport) Recv(src int, tag comm.Tag) ([]float32, error) {
	start := time.Now()
	payload, err := m.Transport.Recv(src, tag)
	m.recvNs.Add(int64(time.Since(start)))
	return payload, err
}

// RecvTimeout implements comm.Transport.
func (m *meteredTransport) RecvTimeout(src int, tag comm.Tag, timeout time.Duration) ([]float32, error) {
	start := time.Now()
	payload, err := m.Transport.RecvTimeout(src, tag, timeout)
	m.recvNs.Add(int64(time.Since(start)))
	return payload, err
}

// CommStats implements comm.Meter when the wrapped transport does.
func (m *meteredTransport) CommStats() *comm.Stats {
	if mt, ok := m.Transport.(comm.Meter); ok {
		return mt.CommStats()
	}
	return nil
}

// WireCodec implements comm.CodecProvider when the wrapped transport does.
func (m *meteredTransport) WireCodec(tag comm.Tag) comm.WireCodec {
	if cp, ok := m.Transport.(comm.CodecProvider); ok {
		return cp.WireCodec(tag)
	}
	return comm.CodecF32
}

// Flush drains the wrapped transport's send queues when it has them.
func (m *meteredTransport) Flush(timeout time.Duration) error {
	return comm.FlushTransport(m.Transport, timeout)
}

// BeginRecovery implements comm.Recoverer by forwarding.
func (m *meteredTransport) BeginRecovery() []int {
	return comm.BeginRecovery(m.Transport)
}

// commCounters is a snapshot of one rank's comm counters: the decorator's
// and the transport's own comm.Stats.
type commCounters struct {
	msgs, bytes, wireWrites, retransmits, dupFrames int64
	send, recvWait                                  time.Duration
}

// snapshot reads the rank's counters.
func (m *meteredTransport) snapshot() commCounters {
	c := commCounters{
		msgs:     m.msgs.Load(),
		send:     time.Duration(m.sendNs.Load()),
		recvWait: time.Duration(m.recvNs.Load()),
	}
	if st := m.CommStats(); st != nil {
		c.bytes = st.TotalSentBytes()
		c.wireWrites = st.WireWrites()
		f := st.TotalFaults()
		c.retransmits, c.dupFrames = f.Retransmits, f.DupFrames
	}
	return c
}

// sub returns c − o, counter by counter.
func (c commCounters) sub(o commCounters) commCounters {
	return commCounters{
		msgs: c.msgs - o.msgs, bytes: c.bytes - o.bytes, wireWrites: c.wireWrites - o.wireWrites,
		retransmits: c.retransmits - o.retransmits, dupFrames: c.dupFrames - o.dupFrames,
		send: c.send - o.send, recvWait: c.recvWait - o.recvWait,
	}
}

// add returns c + o, counter by counter.
func (c commCounters) add(o commCounters) commCounters {
	return commCounters{
		msgs: c.msgs + o.msgs, bytes: c.bytes + o.bytes, wireWrites: c.wireWrites + o.wireWrites,
		retransmits: c.retransmits + o.retransmits, dupFrames: c.dupFrames + o.dupFrames,
		send: c.send + o.send, recvWait: c.recvWait + o.recvWait,
	}
}

// statsMsgs sums a comm.Stats meter's sent messages over every kind.
func statsMsgs(st *comm.Stats) int64 {
	var n int64
	for k := comm.KindWeight; k <= comm.KindBuddy; k++ {
		n += st.SentMsgs(k)
	}
	return n
}
