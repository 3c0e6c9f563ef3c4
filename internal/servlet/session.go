package servlet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/jvmheap"
	"repro/internal/sim"
)

// sessionOwner is the heap owner sessions are charged to.
const sessionOwner = "container.sessions"

// sessionFootprint is the simulated heap charge of one session.
const sessionFootprint int64 = 4096

// Session is one browser session: a mutable attribute bag with access
// times. Sessions are safe for concurrent use.
type Session struct {
	id string

	mu         sync.Mutex
	values     map[string]any
	lastAccess time.Time
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Get reads an attribute (nil when absent).
func (s *Session) Get(key string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.values[key]
}

// Set stores an attribute.
func (s *Session) Set(key string, v any) {
	s.mu.Lock()
	s.values[key] = v
	s.mu.Unlock()
}

// LastAccess returns the most recent access instant.
func (s *Session) LastAccess() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAccess
}

func (s *Session) touch(now time.Time) {
	s.mu.Lock()
	s.lastAccess = now
	s.mu.Unlock()
}

// SessionManager creates, resolves and expires sessions, charging their
// simulated footprint to the heap so an unbounded session population is
// itself a visible aging vector.
type SessionManager struct {
	clock sim.Clock
	heap  *jvmheap.Heap

	mu       sync.Mutex
	sessions map[string]*Session
	created  int64
	expired  int64
}

// SessionTimeout is the idle expiry of a session (Tomcat's default).
const SessionTimeout = 30 * time.Minute

// NewSessionManager creates a manager whose sessions expire after
// SessionTimeout idle.
func NewSessionManager(clock sim.Clock, heap *jvmheap.Heap) *SessionManager {
	if clock == nil {
		clock = sim.WallClock{}
	}
	return &SessionManager{
		clock:    clock,
		heap:     heap,
		sessions: make(map[string]*Session),
	}
}

// GetOrCreate resolves id, creating the session on first use.
func (m *SessionManager) GetOrCreate(id string) *Session {
	if id == "" {
		panic("servlet: empty session id")
	}
	now := m.clock.Now()
	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok {
		s = &Session{
			id:         id,
			values:     make(map[string]any),
			lastAccess: now,
		}
		m.sessions[id] = s
		m.created++
		if m.heap != nil {
			// Session memory that does not fit is a container-level
			// failure surfaced at request admission, not here.
			_ = m.heap.Allocate(sessionOwner, sessionFootprint)
		}
	}
	m.mu.Unlock()
	s.touch(now)
	return s
}

// Peek resolves id without creating or touching.
func (m *SessionManager) Peek(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Live returns the number of live sessions.
func (m *SessionManager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Created returns how many sessions have ever been created.
func (m *SessionManager) Created() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.created
}

// Expired returns how many sessions have been expired.
func (m *SessionManager) Expired() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.expired
}

// ExpireIdle removes sessions idle beyond SessionTimeout, returning how many
// were expired. The container sweeps periodically in simulation mode.
func (m *SessionManager) ExpireIdle() int {
	cut := m.clock.Now().Add(-SessionTimeout)
	m.mu.Lock()
	var victims []string
	for id, s := range m.sessions {
		if s.LastAccess().Before(cut) {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		delete(m.sessions, id)
	}
	m.expired += int64(len(victims))
	m.mu.Unlock()
	if m.heap != nil {
		m.heap.Free(sessionOwner, int64(len(victims))*sessionFootprint)
	}
	return len(victims)
}

// String summarises the manager state.
func (m *SessionManager) String() string {
	return fmt.Sprintf("sessions{live=%d created=%d expired=%d}", m.Live(), m.Created(), m.Expired())
}
