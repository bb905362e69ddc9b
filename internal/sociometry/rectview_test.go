package sociometry

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/timesync"
)

// referenceRectify is the definition rectifyView must meet: map every Local
// through ToReference, then stable-sort by the mapped time.
func referenceRectify(recs []record.Record, c timesync.Correction) []record.Record {
	out := make([]record.Record, len(recs))
	for i, r := range recs {
		r.Local = c.ToReference(r.Local)
		out[i] = r
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Local < out[j].Local })
	return out
}

// filterRecs keeps the records in [from, to) of kind k (0: every kind).
func filterRecs(recs []record.Record, from, to time.Duration, k record.Kind) []record.Record {
	var out []record.Record
	for _, r := range recs {
		if r.Local >= from && r.Local < to && (k == 0 || r.Kind == k) {
			out = append(out, r)
		}
	}
	return out
}

func drain(c record.Cursor) []record.Record {
	var out []record.Record
	for c.Next() {
		out = append(out, c.Record())
	}
	return out
}

// sameRecs compares record lists, treating nil and empty as equal.
func sameRecs(a, b []record.Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// randomCorrection draws a realistic correction (offsets of seconds, skews
// of tens of ppm), the identity, or a degenerate one (1+Skew <= 0).
func randomCorrection(rng *rand.Rand) timesync.Correction {
	switch rng.Intn(5) {
	case 0:
		return timesync.Identity()
	case 1:
		return timesync.Correction{Offset: time.Duration(rng.Int63n(int64(20*time.Second))) - 10*time.Second,
			Skew: -1 - rng.Float64()*float64(rng.Intn(2))}
	default:
		return timesync.Correction{Offset: time.Duration(rng.Int63n(int64(20*time.Second))) - 10*time.Second,
			Skew: (rng.Float64() - 0.5) * 1e-4, N: 5}
	}
}

// TestRectifyViewMatchesReference is the property behind the single
// rectification path: for random series and corrections, every read of
// rectifyView — All, Range, Kind, RangeKind, Iter, First, Last, Len, over
// random and inverted windows — equals the reference map-then-stable-sort.
func TestRectifyViewMatchesReference(t *testing.T) {
	kinds := []record.Kind{record.KindAccel, record.KindMic, record.KindBeacon, record.KindSync}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Out-of-order appends and duplicate timestamps, on a day-scale
		// timeline so skews move records by whole milliseconds.
		s := new(store.Series)
		var raw []record.Record
		for i, n := 0, rng.Intn(300); i < n; i++ {
			r := record.Record{
				Local: 24*time.Hour + time.Duration(rng.Intn(3600))*time.Second + time.Duration(rng.Intn(3))*time.Millisecond,
				Kind:  kinds[rng.Intn(len(kinds))],
				AX:    int16(i),
			}
			s.Append(r)
			raw = append(raw, r)
		}
		sort.SliceStable(raw, func(i, j int) bool { return raw[i].Local < raw[j].Local })
		c := randomCorrection(rng)
		v := rectifyView(s, c)
		want := referenceRectify(raw, c)

		fail := func(what string, got, exp any) bool {
			t.Logf("seed %d, correction %+v: %s = %v, want %v", seed, c, what, got, exp)
			return false
		}
		if !sameRecs(v.All(), want) {
			return fail("All", v.All(), want)
		}
		if v.Len() != len(want) {
			return fail("Len", v.Len(), len(want))
		}
		first, ok := v.First()
		if ok != (len(want) > 0) || ok && first != want[0] {
			return fail("First", first, want)
		}
		last, ok := v.Last()
		if ok != (len(want) > 0) || ok && last != want[len(want)-1] {
			return fail("Last", last, want)
		}
		// Windows around the mapped data, some inverted, and some bounded
		// exactly by record timestamps so an off-by-one inversion shows.
		span := int64(26 * time.Hour)
		for w := 0; w < 8; w++ {
			from := time.Duration(rng.Int63n(span)) - time.Hour
			to := from + time.Duration(rng.Int63n(int64(90*time.Minute))) - 10*time.Minute
			switch {
			case len(want) == 0:
			case w == 0:
				from, to = want[0].Local, want[len(want)-1].Local+1
			case w%2 == 1:
				from, to = want[rng.Intn(len(want))].Local, want[rng.Intn(len(want))].Local
			}
			if got, exp := v.Range(from, to), filterRecs(want, from, to, 0); !sameRecs(got, exp) {
				return fail("Range", got, exp)
			}
			if got, exp := drain(v.Iter(from, to, 0)), filterRecs(want, from, to, 0); !sameRecs(got, exp) {
				return fail("Iter", got, exp)
			}
			for _, k := range kinds {
				if got, exp := v.RangeKind(from, to, k), filterRecs(want, from, to, k); !sameRecs(got, exp) {
					return fail("RangeKind", got, exp)
				}
				if got, exp := drain(v.Iter(from, to, k)), filterRecs(want, from, to, k); !sameRecs(got, exp) {
					return fail("Iter(kind)", got, exp)
				}
			}
		}
		for _, k := range kinds {
			if got, exp := v.Kind(k), filterRecs(want, minTime, maxTime, k); !sameRecs(got, exp) {
				return fail("Kind", got, exp)
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReportLeavesSourceUntouched pins that analysis never writes to its
// source: after a full Report, every series is bit-for-bit equal to an
// identically built dataset no pipeline has read.
func TestReportLeavesSourceUntouched(t *testing.T) {
	const seed = 4242
	ds, twin := randomMission(seed), randomMission(seed)
	p, err := NewPipeline(missionSource(ds))
	if err != nil {
		t.Fatal(err)
	}
	if cors, _ := p.RectifyClocks(); len(cors) == 0 {
		t.Fatal("fixture fitted no corrections; it no longer exercises rectification")
	}
	if len(p.Report()) == 0 {
		t.Fatal("empty report")
	}
	if !reflect.DeepEqual(ds.Badges(), twin.Badges()) {
		t.Fatalf("badges %v, want %v", ds.Badges(), twin.Badges())
	}
	for _, id := range twin.Badges() {
		if !reflect.DeepEqual(ds.Series(id).All(), twin.Series(id).All()) {
			t.Errorf("badge %d: records changed by Report", id)
		}
	}
}
