package support

import (
	"errors"
	"fmt"
	"time"

	"icares/internal/uplink"
)

// Council implements the paper's safeguard against "harmful changes
// introduced by disobedient individuals": significant changes to the
// support system "require approvals from all the teammates and the mission
// control before any significant change to the system is applied". The
// decision rule here is a crew majority plus mission-control assent, with
// the mission-control vote travelling over the delayed uplink.
type Council struct {
	crew map[string]bool
	link *uplink.Link

	proposals map[uint64]*Proposal
	nextID    uint64
}

// ProposalStatus is the lifecycle of a change request.
type ProposalStatus int

// Proposal states.
const (
	Pending ProposalStatus = iota + 1
	Approved
	Rejected
)

// String returns the status label.
func (s ProposalStatus) String() string {
	switch s {
	case Pending:
		return "pending"
	case Approved:
		return "approved"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Proposal is one requested system change.
type Proposal struct {
	ID          uint64
	Proposer    string
	Change      string
	At          time.Duration
	votes       map[string]bool
	mcDecided   bool
	mcApproved  bool
	mcRequested bool
	status      ProposalStatus
	decidedAt   time.Duration
}

// Status returns the proposal's current state.
func (p *Proposal) Status() ProposalStatus { return p.status }

// DecidedAt returns when the proposal left Pending (zero while pending).
func (p *Proposal) DecidedAt() time.Duration { return p.decidedAt }

// Errors of the council.
var (
	ErrUnknownProposal = errors.New("support: unknown proposal")
	ErrNotCrew         = errors.New("support: voter is not a crew member")
	ErrDecided         = errors.New("support: proposal already decided")
)

// NewCouncil creates a council over the crew and the mission-control link.
// link may be nil for habitat-only decisions (then mission-control assent
// is implied — the degraded autonomous mode for link outages).
func NewCouncil(crew []string, link *uplink.Link) *Council {
	c := &Council{
		crew:      make(map[string]bool, len(crew)),
		link:      link,
		proposals: make(map[uint64]*Proposal),
	}
	for _, n := range crew {
		c.crew[n] = true
	}
	return c
}

// Propose opens a change request; the proposer's own approving vote is
// recorded, and the request is forwarded to mission control over the link.
func (c *Council) Propose(now time.Duration, proposer, change string) (*Proposal, error) {
	if !c.crew[proposer] {
		return nil, fmt.Errorf("%w: %q", ErrNotCrew, proposer)
	}
	c.nextID++
	p := &Proposal{
		ID: c.nextID, Proposer: proposer, Change: change, At: now,
		votes:  map[string]bool{proposer: true},
		status: Pending,
	}
	c.proposals[p.ID] = p
	if c.link != nil {
		if _, err := c.link.Send(now, uplink.Message{
			From: uplink.Habitat, Kind: uplink.Report,
			Topic: "council", Body: fmt.Sprintf("proposal %d: %s", p.ID, change),
			Bytes: len(change) + 32,
		}); err != nil {
			return nil, fmt.Errorf("forward proposal: %w", err)
		}
		p.mcRequested = true
	} else {
		// Autonomous mode: no mission control reachable.
		p.mcDecided, p.mcApproved = true, true
	}
	c.evaluate(now, p)
	return p, nil
}

// Vote records a crew member's vote.
func (c *Council) Vote(now time.Duration, id uint64, voter string, approve bool) error {
	p, ok := c.proposals[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownProposal, id)
	}
	if !c.crew[voter] {
		return fmt.Errorf("%w: %q", ErrNotCrew, voter)
	}
	if p.status != Pending {
		return fmt.Errorf("%w: %d is %v", ErrDecided, id, p.status)
	}
	p.votes[voter] = approve
	c.evaluate(now, p)
	return nil
}

// MissionControlDecision records the remote verdict; callers obtain it by
// receiving the council topic from the uplink at the habitat and passing
// the verdict here (the message transport is external to the tally).
func (c *Council) MissionControlDecision(now time.Duration, id uint64, approve bool) error {
	p, ok := c.proposals[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownProposal, id)
	}
	if p.status != Pending {
		return fmt.Errorf("%w: %d is %v", ErrDecided, id, p.status)
	}
	p.mcDecided = true
	p.mcApproved = approve
	c.evaluate(now, p)
	return nil
}

// evaluate applies the decision rule: approved when a strict crew majority
// approves AND mission control approves; rejected when a crew majority
// rejects, or when mission control rejects.
func (c *Council) evaluate(now time.Duration, p *Proposal) {
	if p.status != Pending {
		return
	}
	yes, no := 0, 0
	for _, v := range p.votes {
		if v {
			yes++
		} else {
			no++
		}
	}
	majority := len(c.crew)/2 + 1
	switch {
	case p.mcDecided && !p.mcApproved:
		p.status = Rejected
	case no >= majority:
		p.status = Rejected
	case yes >= majority && p.mcDecided && p.mcApproved:
		p.status = Approved
	}
	if p.status != Pending {
		p.decidedAt = now
	}
}
