// Package monitor implements the JMX Monitoring Agents of the paper's
// architecture: the probes that read resource state on demand when an
// Aspect Component asks, and expose themselves as MBeans so the manager
// and the front-end can discover and operate them at runtime.
//
// The paper ships "a limited set of Monitoring Agents by every resource
// under monitoring"; this package provides agents for heap memory, per-
// component object size, CPU time, live threads and handles, and
// invocations. Each is independent of the aspects that consume it —
// exactly the JMX decoupling the paper emphasises (replacing an agent
// never requires changing an AC).
//
// All per-component state lives in one Table of Cells, one cell per
// component: the Aspect Component records into a component's cell and the
// agents (Invocation, CPU, Thread, Handle, ObjectSize) are read views over
// the same table, each listing only the components it has something to
// report for.
//
// Concurrency contract: recording is lock-free — a cell's counters are
// atomics, and resolving a cell by name is one atomic load and one map
// read of the table's copy-on-write map once the component has been seen,
// so concurrent recorders never serialise. Read-side accessors and the
// JMX beans may run from any goroutine concurrently with recording; they
// observe monotone counter states, not cross-component atomic snapshots.
// Creating a cell (once per component) is the only path that takes a
// lock.
package monitor

import (
	"fmt"

	"repro/internal/jmx"
)

// Domain is the JMX domain monitoring agents register under.
const Domain = "monitoring"

// Agent is implemented by every monitoring agent: a stable object name and
// a management bean.
type Agent interface {
	// ObjectName returns the agent's JMX name.
	ObjectName() jmx.ObjectName
	// Bean returns the agent's management interface.
	Bean() *jmx.Bean
}

// AgentName builds the canonical object name for a named agent.
func AgentName(agent string) jmx.ObjectName {
	return jmx.MustObjectName(fmt.Sprintf("%s:agent=%s", Domain, agent))
}

// QueryAllAgents is the pattern matching every monitoring agent.
func QueryAllAgents() jmx.ObjectName {
	return jmx.MustObjectName(Domain + ":agent=*,*")
}

// RegisterAll registers every agent with the server, undoing earlier
// registrations on failure so the server is left unchanged.
func RegisterAll(server *jmx.Server, agents ...Agent) error {
	var done []jmx.ObjectName
	for _, a := range agents {
		if err := server.Register(a.ObjectName(), a.Bean()); err != nil {
			for _, n := range done {
				_ = server.Unregister(n)
			}
			return err
		}
		done = append(done, a.ObjectName())
	}
	return nil
}
