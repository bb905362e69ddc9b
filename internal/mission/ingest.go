package mission

import (
	"icares/internal/record"
	"icares/internal/store"
)

// chunkLen is the capacity of a staging buffer. A badge hands its buffer
// off each time it fills, so the series lock, the subscriber check and the
// channel send are paid once per chunkLen records.
const chunkLen = 256

// spares is the number of buffers on the free list beyond one per badge:
// how far the ingest goroutine may fall behind (a new series chunk, a
// descheduled thread) before a badge waits for it. With 26, fewer than
// 0.1% of the hand-offs of a default mission wait. A run allocates its
// (badges + spares) × chunkLen records of buffers once, ~0.7 MB.
const spares = 26

// batch is a staging buffer and the series it goes to.
type batch struct {
	series *store.Series
	recs   []record.Record
}

// stage is the badge's Log during a run: a plain append into a fixed-size
// buffer bound for the badge's store series, with no lock and no subscriber
// notification on the simulation goroutine.
type stage struct {
	batch
	g *ingester
}

// Append stages one record and hands the buffer off when it is full.
func (s *stage) Append(r record.Record) {
	s.recs = append(s.recs, r)
	if len(s.recs) == chunkLen {
		s.g.handOff(s)
	}
}

// ingester moves staged records into the dataset off the simulation
// goroutine. One goroutine applies the hand-offs in order, each with one
// AppendBatch, so every series receives exactly the append sequence its
// badge produced. Each badge fills one buffer while the goroutine drains
// earlier ones; a drained buffer goes back to a free list for reuse.
type ingester struct {
	stages []*stage
	work   chan batch           // full buffers, to the goroutine
	free   chan []record.Record // drained buffers, back from it
	done   chan struct{}        // closed when the goroutine has applied everything
}

// startIngest gives every stage a buffer, puts as many spares on the free
// list, and starts the ingest goroutine; close must be called to stop it.
func startIngest(stages []*stage) *ingester {
	// Both channels can hold every buffer at once, so the goroutine's sends
	// on free and close's sends on work never block.
	n := len(stages) + spares
	g := &ingester{
		stages: stages,
		work:   make(chan batch, n),
		free:   make(chan []record.Record, n),
		done:   make(chan struct{}),
	}
	for _, st := range stages {
		st.g = g
		st.recs = make([]record.Record, 0, chunkLen)
	}
	for range spares {
		g.free <- make([]record.Record, 0, chunkLen)
	}
	go func() {
		defer close(g.done)
		for b := range g.work {
			b.series.AppendBatch(b.recs)
			g.free <- b.recs[:0]
		}
	}()
	return g
}

// handOff sends a stage's buffer to the goroutine and gives the stage a
// drained one, waiting for the goroutine to drain one if none is free.
func (g *ingester) handOff(s *stage) {
	g.work <- s.batch
	s.recs = <-g.free
}

// close hands off every partly filled buffer and waits until the goroutine
// has applied them all and exited.
func (g *ingester) close() {
	for _, st := range g.stages {
		if len(st.recs) > 0 {
			g.work <- st.batch
		}
	}
	close(g.work)
	<-g.done
}
