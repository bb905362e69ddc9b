package offload

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
	"icares/internal/store"
)

func mkRecords(n int) []record.Record {
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{
			Local: time.Duration(i) * time.Second,
			Kind:  record.KindAccel,
			AX:    int16(i),
		}
	}
	return out
}

// collector accumulates gateway output per badge.
type collector struct {
	got map[store.BadgeID][]record.Record
}

func newCollector() *collector {
	return &collector{got: make(map[store.BadgeID][]record.Record)}
}

func (c *collector) sink(id store.BadgeID, recs []record.Record) {
	c.got[id] = append(c.got[id], recs...)
}

func TestNewGatewayNilSink(t *testing.T) {
	if _, err := NewGateway(nil); !errors.Is(err, ErrNilSink) {
		t.Errorf("nil sink: %v", err)
	}
}

func TestLosslessTransfer(t *testing.T) {
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUploader(3)
	recs := mkRecords(500)
	for _, r := range recs {
		u.Enqueue(r)
	}
	transport := &LossyTransport{Gateway: gw}
	rounds, err := Drain(u, transport, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Errorf("lossless drain took %d rounds", rounds)
	}
	if len(col.got[3]) != 500 {
		t.Fatalf("gateway received %d records", len(col.got[3]))
	}
	for i, r := range col.got[3] {
		if r.AX != int16(i) {
			t.Fatalf("record %d out of order: AX=%d", i, r.AX)
		}
	}
	if dups := gw.StatsSnapshot().Duplicates; dups != 0 {
		t.Errorf("duplicates on lossless link: %d", dups)
	}
}

func TestLossyTransferIsExactlyOnce(t *testing.T) {
	rng := stats.NewRNG(7)
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUploader(1)
	recs := mkRecords(1000)
	for _, r := range recs {
		u.Enqueue(r)
	}
	transport := &LossyTransport{
		Gateway: gw, LossUp: 0.3, LossDown: 0.3,
		Rand: rng.Float64,
	}
	if _, err := Drain(u, transport, 1000); err != nil {
		t.Fatal(err)
	}
	got := col.got[1]
	if len(got) != 1000 {
		t.Fatalf("gateway received %d records, want 1000 exactly once", len(got))
	}
	seen := make(map[int16]bool, len(got))
	for _, r := range got {
		if seen[r.AX] {
			t.Fatalf("record %d delivered twice", r.AX)
		}
		seen[r.AX] = true
	}
	// Lost acks must have caused duplicates at the gateway (absorbed by
	// dedup) and retransmissions at the uploader.
	if gw.StatsSnapshot().Duplicates == 0 {
		t.Error("no duplicates despite 30% ack loss")
	}
	if u.StatsSnapshot().Retransmits == 0 {
		t.Error("no retransmissions despite 30% loss")
	}
}

func TestNoCoverageKeepsPending(t *testing.T) {
	u := NewUploader(2)
	for _, r := range mkRecords(100) {
		u.Enqueue(r)
	}
	dead := TransportFunc(func(Batch) bool { return false })
	if acked := u.TryFlush(dead); acked != 0 {
		t.Errorf("acks from a dead transport: %d", acked)
	}
	if u.StatsSnapshot().Pending == 0 {
		t.Error("nothing pending after failed flush")
	}
	// MaxPending bounds the in-flight set; the rest stays buffered.
	if u.StatsSnapshot().Pending > u.MaxPending {
		t.Errorf("pending %d exceeds MaxPending %d", u.StatsSnapshot().Pending, u.MaxPending)
	}
	// Coverage restored: everything drains.
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(u, &LossyTransport{Gateway: gw}, 100); err != nil {
		t.Fatal(err)
	}
	if len(col.got[2]) != 100 {
		t.Errorf("received %d after recovery", len(col.got[2]))
	}
}

func TestDrainStallsWithoutTransport(t *testing.T) {
	u := NewUploader(9)
	u.Enqueue(record.Record{Kind: record.KindAccel})
	dead := TransportFunc(func(Batch) bool { return false })
	if _, err := Drain(u, dead, 5); !errors.Is(err, ErrStalled) {
		t.Errorf("dead transport: %v", err)
	}
	if got := u.TryFlush(nil); got != 0 {
		t.Errorf("nil transport acked %d", got)
	}
}

func TestDrainFailsFastOnTotalStall(t *testing.T) {
	u := NewUploader(9)
	for _, r := range mkRecords(100) {
		u.Enqueue(r)
	}
	dead := TransportFunc(func(Batch) bool { return false })
	rounds, err := Drain(u, dead, 1_000_000)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("dead transport: %v", err)
	}
	// Round 1 forms new batches (progress); every later round is fully
	// stalled, so the fail-fast must trip right after DefaultStallRounds
	// instead of spinning out the million-round budget.
	if rounds > DefaultStallRounds+2 {
		t.Errorf("stall detected after %d rounds, want <= %d", rounds, DefaultStallRounds+2)
	}
}

func TestDrainSlowButProgressing(t *testing.T) {
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	// Lets a batch through only every 37th delivery attempt: far slower
	// than lossless, but progressing — Drain must ride out the dead
	// stretches (< stall limit) and finish without ErrStalled. The period
	// is co-prime with the pending-set size so the one delivery per period
	// cycles across all pending batches instead of starving the gap filler.
	calls := 0
	slow := TransportFunc(func(b Batch) bool {
		calls++
		if calls%37 != 0 {
			return false
		}
		return gw.Offer(b)
	})
	u := NewUploader(5)
	u.BatchSize = 10
	for _, r := range mkRecords(50) {
		u.Enqueue(r)
	}
	if _, err := Drain(u, slow, 5000); err != nil {
		t.Fatalf("slow but progressing transport stalled: %v", err)
	}
	if len(col.got[5]) != 50 {
		t.Errorf("delivered %d records, want 50", len(col.got[5]))
	}
}

func TestGatewayOutOfOrderDedup(t *testing.T) {
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seq uint64) Batch {
		return Batch{Badge: 4, Seq: seq, Records: mkRecords(1)}
	}
	// Out-of-order arrival: 2 is buffered but NOT acked — held is volatile,
	// so responsibility stays with the sender until the gap fills.
	if gw.Offer(mk(2)) {
		t.Fatal("out-of-order batch acked while only volatile")
	}
	// 1 fills the gap: it and the held 2 cascade to the sink.
	if !gw.Offer(mk(1)) {
		t.Fatal("in-order batch nacked")
	}
	if !gw.Offer(mk(3)) {
		t.Fatal("next in-order batch nacked")
	}
	// Retransmissions of everything at or below the mark re-ack as
	// duplicates (the sender never heard an ack for 2 at all).
	for _, seq := range []uint64{2, 1, 3} {
		if !gw.Offer(mk(seq)) {
			t.Fatalf("duplicate of forwarded batch %d nacked", seq)
		}
	}
	if len(col.got[4]) != 3 {
		t.Errorf("delivered %d records, want 3", len(col.got[4]))
	}
	if dups := gw.StatsSnapshot().Duplicates; dups != 3 {
		t.Errorf("duplicates = %d, want 3", dups)
	}
}

func TestGatewayHeldObservableAndBounded(t *testing.T) {
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUploader(6)
	u.BatchSize = 4
	for _, r := range mkRecords(120) {
		u.Enqueue(r)
	}
	// Drop every delivery of batch 1: everything above it piles up in held
	// until the uploader's MaxPending window is exhausted, then the gap
	// finally fills.
	attempts := 0
	maxHeldBatches := 0
	gap := TransportFunc(func(b Batch) bool {
		if b.Seq == 1 {
			attempts++
			if attempts < 4 {
				return false
			}
		}
		ok := gw.Offer(b)
		if gs := gw.StatsSnapshot(); gs.HeldBatches > maxHeldBatches {
			maxHeldBatches = gs.HeldBatches
			if gs.HeldRecords != gs.HeldBatches*4 {
				t.Errorf("held records %d for %d held batches of 4", gs.HeldRecords, gs.HeldBatches)
			}
		}
		return ok
	})
	if _, err := Drain(u, gap, 100); err != nil {
		t.Fatal(err)
	}
	if maxHeldBatches == 0 {
		t.Fatal("gap never buffered anything out of order")
	}
	if maxHeldBatches > u.MaxPending {
		t.Errorf("held %d batches, beyond the MaxPending window %d", maxHeldBatches, u.MaxPending)
	}
	if gs := gw.StatsSnapshot(); gs.HeldBatches != 0 || gs.HeldRecords != 0 {
		t.Errorf("held state after gap fill: %d batches %d records, want 0", gs.HeldBatches, gs.HeldRecords)
	}
	if len(col.got[6]) != 120 {
		t.Fatalf("delivered %d records, want 120", len(col.got[6]))
	}
	for i, r := range col.got[6] {
		if r.AX != int16(i) {
			t.Fatalf("record %d out of order after gap fill: AX=%d", i, r.AX)
		}
	}
}

func TestGatewayHeldBoundRefuses(t *testing.T) {
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	gw.MaxHeldPerBadge = 2
	mk := func(seq uint64) Batch { return Batch{Badge: 4, Seq: seq, Records: mkRecords(1)} }
	// 2 and 3 fit in held (nacked — held is volatile, never acked), but
	// they occupy the bound.
	gw.Offer(mk(2))
	gw.Offer(mk(3))
	if hb := gw.StatsSnapshot().HeldBatches; hb != 2 {
		t.Fatalf("held %d batches, want bound 2", hb)
	}
	// 4 is beyond the bound: refused outright, not buffered.
	if gw.Offer(mk(4)) {
		t.Error("batch beyond the held bound was acked")
	}
	if n := gw.StatsSnapshot().Refused; n != 1 {
		t.Errorf("refused = %d, want 1", n)
	}
	if hb := gw.StatsSnapshot().HeldBatches; hb != 2 {
		t.Errorf("held %d batches after refusal, want still 2", hb)
	}
	// Gap fill releases 1..3; the refused 4 arrives as a retransmission.
	if !gw.Offer(mk(1)) || !gw.Offer(mk(4)) {
		t.Fatal("recovery path refused")
	}
	if len(col.got[4]) != 4 {
		t.Errorf("delivered %d records, want 4 exactly once", len(col.got[4]))
	}
}

func TestCrashWithHeldBatchesLosesNothing(t *testing.T) {
	// The scenario that forbids acking held batches: a batch sits in
	// volatile held when the gateway crashes. Because it was never acked,
	// the sender still has it pending, and retransmission recovers it.
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seq uint64, ax int16) Batch {
		return Batch{Badge: 9, Seq: seq, Records: []record.Record{{Kind: record.KindAccel, AX: ax}}}
	}
	if gw.Offer(mk(2, 1)) {
		t.Fatal("held batch acked before the crash")
	}
	gw.Restore(gw.Snapshot()) // crash: held 2 evaporates
	if !gw.Offer(mk(1, 0)) {
		t.Fatal("in-order batch nacked after restart")
	}
	// The sender retransmits the never-acked 2; then 3 proceeds in order.
	if !gw.Offer(mk(2, 1)) || !gw.Offer(mk(3, 2)) {
		t.Fatal("recovery after crash nacked")
	}
	got := col.got[9]
	if len(got) != 3 {
		t.Fatalf("delivered %d records, want 3", len(got))
	}
	for i, r := range got {
		if r.AX != int16(i) {
			t.Fatalf("record %d out of order after crash: AX=%d", i, r.AX)
		}
	}
}

func TestGatewaySnapshotRestoreExactlyOnce(t *testing.T) {
	rng := stats.NewRNG(11)
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUploader(2)
	u.BatchSize = 8
	for _, r := range mkRecords(400) {
		u.Enqueue(r)
	}
	transport := &LossyTransport{Gateway: gw, LossUp: 0.3, LossDown: 0.3, Rand: rng.Float64}
	// Half-drain, then crash: volatile held state is lost, the durable
	// marks survive via Snapshot/Restore.
	for i := 0; i < 6; i++ {
		u.TryFlush(transport)
	}
	gw.Restore(gw.Snapshot())
	if gs := gw.StatsSnapshot(); gs.HeldBatches != 0 || gs.HeldRecords != 0 {
		t.Fatalf("held state survived the crash: %d batches %d records", gs.HeldBatches, gs.HeldRecords)
	}
	if _, err := Drain(u, transport, 5000); err != nil {
		t.Fatal(err)
	}
	got := col.got[2]
	if len(got) != 400 {
		t.Fatalf("gateway released %d records, want 400 exactly once", len(got))
	}
	for i, r := range got {
		if r.AX != int16(i) {
			t.Fatalf("record %d out of order after restart: AX=%d", i, r.AX)
		}
	}
}

func TestFlushAtBackoff(t *testing.T) {
	u := NewUploader(3)
	u.BackoffBase = 10 * time.Second
	u.BackoffMax = 40 * time.Second
	for _, r := range mkRecords(10) {
		u.Enqueue(r)
	}
	dead := TransportFunc(func(Batch) bool { return false })
	at := func(sec int) time.Duration { return time.Duration(sec) * time.Second }

	u.FlushAt(at(0), dead) // fails: backoff 10 s
	first := u.StatsSnapshot()
	if first.Sent == 0 {
		t.Fatal("first flush attempted nothing")
	}
	u.FlushAt(at(5), dead) // inside backoff: must not touch the radio
	if r2 := u.StatsSnapshot().Retransmits; r2 != first.Retransmits {
		t.Errorf("flush inside backoff retransmitted (%d -> %d)", first.Retransmits, r2)
	}
	if n := u.StatsSnapshot().Skipped; n != 1 {
		t.Errorf("skipped = %d, want 1", n)
	}
	u.FlushAt(at(10), dead) // fails again: backoff 20 s
	u.FlushAt(at(25), dead) // still inside
	if n := u.StatsSnapshot().Skipped; n != 2 {
		t.Errorf("skipped = %d, want 2", n)
	}
	u.FlushAt(at(30), dead) // fails: backoff caps at 40 s
	u.FlushAt(at(30+39), dead)
	if n := u.StatsSnapshot().Skipped; n != 3 {
		t.Errorf("capped backoff: skipped = %d, want 3", n)
	}
	// Coverage returns: an ack resets the streak and everything drains.
	col := newCollector()
	gw, err := NewGateway(col.sink)
	if err != nil {
		t.Fatal(err)
	}
	live := &LossyTransport{Gateway: gw}
	if acked := u.FlushAt(at(30+40), live); acked == 0 {
		t.Fatal("no acks after coverage returned")
	}
	u.FlushAt(at(30+41), live)
	if len(col.got[3]) != 10 {
		t.Errorf("delivered %d records, want 10", len(col.got[3]))
	}
}

// reorderTransport queues deliveries and offers them to the gateway in
// random order with random lag — the adversarial reordering model for the
// exactly-once property.
type reorderTransport struct {
	rng   *stats.RNG
	gw    *Gateway
	loss  float64
	queue []Batch
}

func (rt *reorderTransport) Deliver(b Batch) bool {
	if rt.rng.Float64() < rt.loss {
		return false // lost before queueing
	}
	rt.queue = append(rt.queue, b)
	acked := false
	n := rt.rng.Intn(len(rt.queue) + 1)
	for i := 0; i < n; i++ {
		j := rt.rng.Intn(len(rt.queue))
		q := rt.queue[j]
		rt.queue = append(rt.queue[:j], rt.queue[j+1:]...)
		ok := rt.gw.Offer(q)
		if ok && q.Badge == b.Badge && q.Seq == b.Seq && rt.rng.Float64() >= rt.loss {
			acked = true // the sender's own batch made it and the ack survived
		}
	}
	return acked
}

// Property (the package-doc invariant): for random loss rates, batch
// sizes, held bounds, and arbitrary reordering, the gateway sink receives
// each badge's records exactly once and in sequence order.
func TestQuickExactlyOnceUnderReordering(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		col := newCollector()
		gw, err := NewGateway(col.sink)
		if err != nil {
			return false
		}
		gw.MaxHeldPerBadge = 1 + rng.Intn(40)
		rt := &reorderTransport{rng: rng.Split(), gw: gw, loss: rng.Range(0, 0.4)}

		nBadges := 1 + rng.Intn(3)
		counts := make(map[store.BadgeID]int, nBadges)
		var ups []*Uploader
		for i := 0; i < nBadges; i++ {
			id := store.BadgeID(i + 1)
			u := NewUploader(id)
			u.BatchSize = 1 + rng.Intn(20)
			counts[id] = rng.Intn(300)
			for _, r := range mkRecords(counts[id]) {
				u.Enqueue(r)
			}
			ups = append(ups, u)
		}
		for round := 0; round < 20000; round++ {
			busy := false
			for _, u := range ups {
				if u.StatsSnapshot().Buffered > 0 || u.StatsSnapshot().Pending > 0 {
					busy = true
					u.TryFlush(rt)
				}
			}
			if !busy {
				break
			}
		}
		for _, u := range ups {
			if u.StatsSnapshot().Buffered > 0 || u.StatsSnapshot().Pending > 0 {
				return false // failed to converge
			}
		}
		// Whatever still sits in the transport queue is duplicates of
		// acked batches; the gateway must absorb them.
		for _, q := range rt.queue {
			gw.Offer(q)
		}
		for id, want := range counts {
			got := col.got[id]
			if len(got) != want {
				return false
			}
			for i, r := range got {
				if r.AX != int16(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: under any loss rate < 1 and any workload, a completed drain
// delivers every record exactly once, in order per badge.
func TestQuickExactlyOnce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		col := newCollector()
		gw, err := NewGateway(col.sink)
		if err != nil {
			return false
		}
		u := NewUploader(store.BadgeID(1 + rng.Intn(6)))
		u.BatchSize = 1 + rng.Intn(20)
		n := rng.Intn(500)
		for _, r := range mkRecords(n) {
			u.Enqueue(r)
		}
		loss := rng.Range(0, 0.6)
		transport := &LossyTransport{
			Gateway: gw, LossUp: loss, LossDown: loss,
			Rand: rng.Float64,
		}
		if _, err := Drain(u, transport, 5000); err != nil {
			return false
		}
		var got []record.Record
		for _, recs := range col.got {
			got = recs
		}
		if len(got) != n {
			return false
		}
		for i, r := range got {
			if r.AX != int16(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOffloadLossyDrain(b *testing.B) {
	rng := stats.NewRNG(3)
	recs := mkRecords(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := newCollector()
		gw, err := NewGateway(col.sink)
		if err != nil {
			b.Fatal(err)
		}
		u := NewUploader(1)
		for _, r := range recs {
			u.Enqueue(r)
		}
		transport := &LossyTransport{Gateway: gw, LossUp: 0.1, LossDown: 0.1, Rand: rng.Float64}
		if _, err := Drain(u, transport, 10000); err != nil {
			b.Fatal(err)
		}
		if len(col.got[1]) != len(recs) {
			b.Fatal("incomplete drain")
		}
	}
}

// Batches are read-only views of the uploader's buffer, not copies. A
// batch whose delivery failed sits pending while more records are
// enqueued and flushed past it; its retransmission must carry its
// original records, and every batch delivered earlier must still hold
// what it held when delivered.
func TestBatchViewsSurviveLaterEnqueues(t *testing.T) {
	u := NewUploader(5)
	u.BatchSize = 4
	recs := mkRecords(200)
	type delivery struct {
		seq  uint64
		view []record.Record // the slice as delivered, aliasing the buffer
		was  []record.Record // its contents at delivery
	}
	var got []delivery
	failFirst := true
	transport := TransportFunc(func(b Batch) bool {
		got = append(got, delivery{b.Seq, b.Records, append([]record.Record(nil), b.Records...)})
		if b.Seq == 2 && failFirst {
			failFirst = false
			return false
		}
		return true
	})
	u.Enqueue(recs[:6]...) // seq 1 acked, seq 2 (two records) left pending
	u.TryFlush(transport)
	if s := u.StatsSnapshot(); s.Pending != 1 {
		t.Fatalf("pending %d after the failed delivery, want 1", s.Pending)
	}
	for next := 6; next < len(recs); next += 7 {
		u.Enqueue(recs[next:min(next+7, len(recs))]...)
		u.TryFlush(transport)
	}
	sends := 0
	for _, d := range got {
		if !slices.Equal(d.view, d.was) {
			t.Errorf("batch %d changed after delivery: %v, was %v", d.seq, d.view, d.was)
		}
		if d.seq == 2 {
			sends++
			if !slices.Equal(d.view, recs[4:6]) {
				t.Errorf("batch 2 carried %v, want its original records %v", d.view, recs[4:6])
			}
		}
	}
	if sends != 2 {
		t.Errorf("batch 2 was sent %d times, want once and one retransmission", sends)
	}
}
