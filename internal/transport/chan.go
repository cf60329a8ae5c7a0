package transport

// Chan is the in-proc engine: ranks are goroutines in one process and a
// frame is "delivered" by copying its 56-byte value into the destination
// rank's mailbox; the payload slice inside it is shared, not copied. This is the channel-based delivery extracted from the original
// mpi runtime, preserved bit-for-bit: the cost model charges the sending
// goroutine before the frame becomes visible (so trees and pipelines keep
// their modeled scaling behaviour), delivery is synchronous, and the
// payload moves by reference with zero copies.
type Chan struct {
	deliver func(dst int, f Frame)
	cost    func(bytes int)
}

// NewChan builds the in-proc engine. deliver enqueues a frame at its
// destination mailbox (the caller keeps abort/failure semantics there);
// cost, when non-nil, is the α–β injection charge paid by the sending
// goroutine before delivery.
func NewChan(deliver func(dst int, f Frame), cost func(bytes int)) *Chan {
	return &Chan{deliver: deliver, cost: cost}
}

// Send charges the cost model and delivers f synchronously. It never
// fails: in-proc destination liveness is the caller's concern (the mpi
// layer drops frames to crashed ranks before calling Send).
func (t *Chan) Send(dst int, f Frame) error {
	if t.cost != nil {
		t.cost(len(f.Data))
	}
	t.deliver(dst, f)
	return nil
}

// Close is a no-op; the in-proc engine owns no resources.
func (t *Chan) Close() error { return nil }
