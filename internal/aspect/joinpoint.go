// Package aspect provides the Aspect-Oriented Programming substrate of the
// reproduction: join points, a pointcut expression language, advice kinds
// and a weaver that wraps component invocation handles.
//
// AspectJ rewrites JVM bytecode at load time; Go has no such facility, so
// weaving happens when a component registers its invocation handle with the
// container. The observable semantics the paper relies on are preserved:
// advice executes before/after/around every matched component execution,
// aspects can be added and (de)activated at runtime without touching
// application code, and the interception cost is real and measurable.
//
// Concurrency contract: woven handles may be invoked from any number of
// goroutines concurrently with configuration changes. Dispatch is
// lock-free — it reads an immutable configuration snapshot through an
// atomic pointer and revalidates a generation-stamped per-handle advice
// chain cache; mutations (Register, Unregister, SetComponentEnabled) copy
// and swap the snapshot under a mutex dispatch never touches, and every
// handle observes a configuration change on its very next call. Advice
// bodies themselves must be safe for concurrent execution; the weaver
// gives them no serialisation.
//
// JoinPoint lifetime contract: the JoinPoint passed to advice is pooled
// and recycled as soon as the advised execution completes — exactly
// AspectJ's thisJoinPoint semantics, which is only meaningful during the
// advised execution. Advice must not retain the JoinPoint (or its Args
// slice) past its own return; copy out whatever outlives the execution.
package aspect

// Func is a component invocation handle: the unit the weaver wraps. The
// servlet container adapts each component method to this signature before
// weaving.
type Func func(args ...any) (any, error)

// JoinPoint describes one intercepted execution. A single JoinPoint value
// is shared by all advice bodies that fire for the execution, mirroring
// AspectJ's thisJoinPoint.
type JoinPoint struct {
	// Component is the logical component name, e.g. "tpcw.TPCW_home".
	Component string
	// Method is the executed method name, e.g. "Service".
	Method string
	// Args are the invocation arguments.
	Args []any
	// Result and Err hold the outcome once the execution has proceeded.
	Result any
	Err    error
	// Depth is the nesting depth of woven calls on this goroutine-less
	// invocation chain: 0 for a top-level component execution, 1 for a
	// component invoked by another woven component, and so on. Trace
	// aspects use it to reconstruct per-request component paths.
	Depth int
	// Bound is what the advising aspect's Bind returned for this
	// component (nil without a Bind). Each aspect's advice sees its own.
	Bound any
}

// Keyed is implemented by invocation arguments that can identify the
// request flow they belong to. The container's request and the database
// connection bound to it return the same key, which lets trace-collecting
// aspects stitch a servlet execution and its nested DAO executions into
// one per-request component path without any explicit context plumbing.
type Keyed interface {
	// TraceKey returns a comparable identity for the current flow.
	TraceKey() any
}

// Key extracts the flow key from the join point's arguments (nil when no
// argument is Keyed).
func (jp *JoinPoint) Key() any {
	for _, a := range jp.Args {
		if k, ok := a.(Keyed); ok {
			return k.TraceKey()
		}
	}
	return nil
}

// Signature returns "component.method", the form pointcuts match against.
func (jp *JoinPoint) Signature() string { return jp.Component + "." + jp.Method }
