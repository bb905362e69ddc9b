package support

import (
	"errors"
	"fmt"
	"time"

	"icares/internal/record"
	"icares/internal/store"
)

// BadgePool manages the redundant badges: ICAres-1 carried six backups "in
// case their assigned ones failed". The paper also notes F in fact reused
// dead C's badge — which broke the one-owner assumption of the analysis —
// so the pool keeps an auditable reassignment log that downstream analyses
// can consume instead of guessing.
type BadgePool struct {
	free     []store.BadgeID
	assigned map[store.BadgeID]string
	log      []Reassignment
}

// Reassignment is one audited badge hand-over.
type Reassignment struct {
	At     time.Duration
	Badge  store.BadgeID
	Wearer string
	Reason string
}

// ErrPoolEmpty reports an exhausted backup pool.
var ErrPoolEmpty = errors.New("support: no backup badges left")

// NewBadgePool creates a pool with the given spare badges.
func NewBadgePool(spares []store.BadgeID) *BadgePool {
	p := &BadgePool{assigned: make(map[store.BadgeID]string)}
	p.free = append(p.free, spares...)
	return p
}

// Assign hands the next spare to the wearer, recording the reason (e.g.
// "badge 6 battery failure").
func (p *BadgePool) Assign(at time.Duration, wearer, reason string) (store.BadgeID, error) {
	if len(p.free) == 0 {
		return 0, ErrPoolEmpty
	}
	id := p.free[0]
	p.free = p.free[1:]
	p.assigned[id] = wearer
	p.log = append(p.log, Reassignment{At: at, Badge: id, Wearer: wearer, Reason: reason})
	return id, nil
}

// maxSilence is how long a duty badge may be unheard before failover.
const maxSilence = 30 * time.Minute

// Failover couples the health registry with the pool: when an assigned
// badge goes silent for maxSilence, it allocates a spare for the wearer and
// raises an alert. It implements Detector so it can run inside the daemon.
type Failover struct {
	health   *HealthRegistry
	pool     *BadgePool
	wearerOf func(store.BadgeID) (string, bool)
	replaced map[store.BadgeID]bool
}

// NewFailover builds the failover controller. wearerOf maps a badge to its
// current wearer (may change over the mission).
func NewFailover(health *HealthRegistry, pool *BadgePool, wearerOf func(store.BadgeID) (string, bool)) *Failover {
	return &Failover{
		health:   health,
		pool:     pool,
		wearerOf: wearerOf,
		replaced: make(map[store.BadgeID]bool),
	}
}

// Name implements Detector.
func (f *Failover) Name() string { return "failover" }

// Observe implements Detector (no per-record work; liveness is tracked by
// the daemon's health registry).
func (f *Failover) Observe(time.Duration, string, store.BadgeID, record.Record) []Alert {
	return nil
}

// Sweep implements Detector: any stale duty badge triggers a replacement.
func (f *Failover) Sweep(now time.Duration) []Alert {
	var out []Alert
	for _, id := range f.health.Stale(now, maxSilence) {
		if f.replaced[id] {
			continue
		}
		wearer, onDuty := f.wearerOf(id)
		if !onDuty {
			continue
		}
		f.replaced[id] = true
		spare, err := f.pool.Assign(now, wearer, fmt.Sprintf("badge %d silent for over %v", id, maxSilence))
		if err != nil {
			out = append(out, Alert{
				At: now, Severity: Critical, Kind: f.Name(), Subject: wearer,
				Message: fmt.Sprintf("badge %d silent and no spares left: %v", id, err),
			})
			continue
		}
		out = append(out, Alert{
			At: now, Severity: Warning, Kind: f.Name(), Subject: wearer,
			Message: fmt.Sprintf("badge %d presumed failed; issue backup badge %d to %s", id, spare, wearer),
		})
	}
	return out
}
