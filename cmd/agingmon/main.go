// Command agingmon is the External Front-end of the paper's architecture:
// a CLI that talks to the JMX Manager Agent (and any other MBean) through
// the HTTP protocol adapter of a running tpcwsim (or any embedding of the
// framework).
//
// Usage:
//
//	agingmon [-url http://localhost:9990] <command> [args]
//
// Commands:
//
//	names [pattern]              list registered MBeans
//	describe <name>              show an MBean's attributes and operations
//	get <name> <attr>            read one attribute
//	set <name> <attr> <value>    write one attribute (true/false/number/string)
//	invoke <name> <op> [args]    invoke an operation (string args)
//	suspects [resource]          ask the manager for the aging ranking
//	map [resource]               print the manager's consumption×usage map
//	live [resource]              rank with the online detector verdicts
//	verdicts [resource]          print the latest online detection report
//	watch [resource]             live-watch mode: poll verdicts + alarms
//	                             until interrupted (-interval sets the period)
//	components                   list instrumented components
//	activate <component>         enable a component's AC
//	deactivate <component>       disable a component's AC
//	reboot <component>           micro-reboot a component
//	tte                          time-to-exhaustion estimate (seconds)
//	notifications [since-seq]    poll buffered JMX notifications
//	accuracy <report.json>       render a scenario-matrix accuracy report
//	                             (written by experiments -accuracy); local,
//	                             no server needed
//
// Cluster commands (against a tpcwsim -nodes N management plane, which
// serves the aggregator bean):
//
//	nodes                        list cluster nodes with status, epochs and
//	                             wire counters (publish errors, rounds
//	                             dropped after a failed write)
//	cluster-stats                aggregation-plane counters: epoch, rounds
//	                             ingested, verdict (fold) latency, rounds
//	                             shed under overload, notifications dropped
//	cluster [resource]           print the cluster verdict report
//	node-verdicts <node> [res]   print one node's detection report
//	cluster-live [resource]      rank (node, component) pairs live
//	cluster-watch [resource]     live-watch the cluster verdicts + alarms
//	rejuv                        actuation plane: per-node rejuvenation FSM
//	                             state and cumulative counters
//	rejuv-history                actuation state-machine transition log
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/jmxhttp"
)

const (
	managerName    = "aging:type=Manager"
	aggregatorName = "aging:type=Aggregator"
	rejuvName      = "aging:type=Rejuvenator"
)

var (
	watchInterval = flag.Duration("interval", 5*time.Second, "poll period of the watch commands")
	watchRounds   = flag.Int("watchrounds", 0, "stop watch commands after N polls (0 = forever)")
)

func main() {
	url := flag.String("url", "http://localhost:9990", "base URL of the JMX HTTP adapter")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	client := jmxhttp.NewClient(*url, nil)
	if err := dispatch(client, args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "agingmon:", err)
		os.Exit(1)
	}
}

func dispatch(client *jmxhttp.Client, args []string, w io.Writer) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "names":
		pattern := ""
		if len(rest) > 0 {
			pattern = rest[0]
		}
		names, err := client.Names(pattern)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(w, n)
		}
		return nil

	case "describe":
		if len(rest) != 1 {
			return fmt.Errorf("describe wants <name>")
		}
		d, err := client.DescribeBean(rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s — %s\n", d.Name, d.Description)
		fmt.Fprintln(w, "attributes:")
		for k, v := range d.Attributes {
			fmt.Fprintf(w, "  %s = %v\n", k, v)
		}
		fmt.Fprintln(w, "operations:")
		for _, op := range d.Operations {
			fmt.Fprintf(w, "  %s\n", op)
		}
		return nil

	case "get":
		if len(rest) != 2 {
			return fmt.Errorf("get wants <name> <attr>")
		}
		v, err := client.Get(rest[0], rest[1])
		if err != nil {
			return err
		}
		fmt.Fprintln(w, v)
		return nil

	case "set":
		if len(rest) != 3 {
			return fmt.Errorf("set wants <name> <attr> <value>")
		}
		return client.Set(rest[0], rest[1], parseValue(rest[2]))

	case "invoke":
		if len(rest) < 2 {
			return fmt.Errorf("invoke wants <name> <op> [args]")
		}
		opArgs := make([]any, len(rest)-2)
		for i, a := range rest[2:] {
			opArgs[i] = a
		}
		v, err := client.Invoke(rest[0], rest[1], opArgs...)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, v)
		return nil

	case "suspects":
		v, err := client.Invoke(managerName, "Suspects", resourceArg(rest))
		if err != nil {
			return err
		}
		list, _ := v.([]any)
		for i, name := range list {
			fmt.Fprintf(w, "%2d. %v\n", i+1, name)
		}
		return nil

	case "map":
		v, err := client.Invoke(managerName, "Map", resourceArg(rest))
		if err != nil {
			return err
		}
		printMap(w, v)
		return nil

	case "live":
		v, err := client.Invoke(managerName, "LiveMap", resourceArg(rest))
		if err != nil {
			return err
		}
		printLiveMap(w, v)
		return nil

	case "verdicts":
		v, err := client.Invoke(managerName, "Verdicts", resourceArg(rest))
		if err != nil {
			return err
		}
		printVerdicts(w, v)
		return nil

	case "watch":
		return watch(client, resourceArg(rest), w)

	case "components":
		v, err := client.Get(managerName, "Components")
		if err != nil {
			return err
		}
		list, _ := v.([]any)
		for _, c := range list {
			fmt.Fprintln(w, c)
		}
		return nil

	case "activate", "deactivate":
		if len(rest) != 1 {
			return fmt.Errorf("%s wants <component>", cmd)
		}
		op := "ActivateAC"
		if cmd == "deactivate" {
			op = "DeactivateAC"
		}
		_, err := client.Invoke(managerName, op, rest[0])
		return err

	case "reboot":
		if len(rest) != 1 {
			return fmt.Errorf("reboot wants <component>")
		}
		v, err := client.Invoke(managerName, "MicroReboot", rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "freed %v bytes\n", v)
		return nil

	case "tte":
		v, err := client.Invoke(managerName, "TimeToExhaustion")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v seconds\n", v)
		return nil

	case "notifications":
		var since uint64
		if len(rest) > 0 {
			n, err := strconv.ParseUint(rest[0], 10, 64)
			if err != nil {
				return fmt.Errorf("notifications wants a numeric cursor: %w", err)
			}
			since = n
		}
		ns, err := client.Notifications(since)
		if err != nil {
			return err
		}
		for _, n := range ns {
			fmt.Fprintf(w, "%6d %s %-24s %s %s\n", n.Seq, n.Time, n.Type, n.Source, n.Message)
		}
		return nil

	case "nodes":
		v, err := client.Get(aggregatorName, "Nodes")
		if err != nil {
			return err
		}
		printNodes(w, v, client)
		return nil

	case "cluster-stats":
		epoch, err := client.Get(aggregatorName, "Epoch")
		if err != nil {
			return err
		}
		rounds, err := client.Get(aggregatorName, "TotalRounds")
		if err != nil {
			return err
		}
		lat, err := client.Get(aggregatorName, "FoldLatency")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "epoch=%v rounds=%v\n", epoch, rounds)
		if m, ok := lat.(map[string]any); ok {
			fmt.Fprintf(w, "verdict latency: last=%v max=%v\n",
				nanosDuration(m["LastNanos"]), nanosDuration(m["MaxNanos"]))
		} else {
			fmt.Fprintf(w, "verdict latency: %v\n", lat)
		}
		printOverload(w, client)
		return nil

	case "cluster":
		v, err := client.Invoke(aggregatorName, "ClusterReport", resourceArg(rest))
		if err != nil {
			return err
		}
		printClusterReport(w, v)
		printOverload(w, client)
		return nil

	case "node-verdicts":
		if len(rest) < 1 {
			return fmt.Errorf("node-verdicts wants <node> [resource]")
		}
		resource := "memory"
		if len(rest) > 1 {
			resource = rest[1]
		}
		v, err := client.Invoke(aggregatorName, "NodeVerdicts", rest[0], resource)
		if err != nil {
			return err
		}
		printVerdicts(w, v)
		return nil

	case "cluster-live":
		v, err := client.Invoke(aggregatorName, "ClusterLive", resourceArg(rest))
		if err != nil {
			return err
		}
		printLiveMap(w, v)
		return nil

	case "cluster-watch":
		return clusterWatch(client, resourceArg(rest), w)

	case "rejuv":
		epoch, err := client.Get(rejuvName, "Epoch")
		if err != nil {
			return rejuvUnavailable(err)
		}
		status, err := client.Get(rejuvName, "Status")
		if err != nil {
			return err
		}
		counters, err := client.Get(rejuvName, "Counters")
		if err != nil {
			return err
		}
		printRejuvStatus(w, epoch, status, counters)
		return nil

	case "rejuv-history":
		v, err := client.Invoke(rejuvName, "History")
		if err != nil {
			return rejuvUnavailable(err)
		}
		printRejuvHistory(w, v)
		return nil

	case "accuracy":
		if len(rest) != 1 {
			return fmt.Errorf("usage: accuracy <report.json>")
		}
		return printAccuracyFile(rest[0], w)

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printAccuracyFile renders an accuracy report written by
// `experiments -accuracy` (or by scripts/scenariomatrix.sh). It reads a
// local artifact, so unlike every other command it never touches the
// management plane.
func printAccuracyFile(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep experiment.AccuracyReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	_, err = io.WriteString(w, rep.String())
	return err
}

// resourceArg reads the optional trailing resource argument ("memory"
// when absent).
func resourceArg(rest []string) string {
	if len(rest) > 0 {
		return rest[0]
	}
	return "memory"
}

// watch is the live-watch mode: every interval it polls the latest
// detection report for the resource and any new aging.* notifications,
// printing both — a terminal dashboard over the online detectors. It runs
// until the process is interrupted, the remote end goes away, or
// -watchrounds polls have completed.
func watch(client *jmxhttp.Client, resource string, w io.Writer) error {
	return watchLoop(client, w, func() error {
		v, err := client.Invoke(managerName, "Verdicts", resource)
		if err != nil {
			// "no detectors attached" cannot resolve itself — bail out
			// with a diagnostic instead of polling forever. "No report
			// yet" just means the first sampling round hasn't run;
			// keep polling.
			if strings.Contains(err.Error(), "no detectors attached") {
				return fmt.Errorf("%w (start the server with detectors, e.g. tpcwsim -detect)", err)
			}
			fmt.Fprintf(w, "%s  (no verdicts: %v)\n", time.Now().Format(time.TimeOnly), err)
			return nil
		}
		fmt.Fprintf(w, "--- %s ---\n", time.Now().Format(time.TimeOnly))
		printVerdicts(w, v)
		return nil
	})
}

// clusterWatch is watch for the cluster plane: it polls the aggregator's
// cluster report and the aging.cluster.* notifications.
func clusterWatch(client *jmxhttp.Client, resource string, w io.Writer) error {
	return watchLoop(client, w, func() error {
		v, err := client.Invoke(aggregatorName, "ClusterReport", resource)
		if err != nil {
			if strings.Contains(err.Error(), "not registered") {
				return fmt.Errorf("%w (cluster commands need a cluster plane, e.g. tpcwsim -nodes 3)", err)
			}
			fmt.Fprintf(w, "%s  (no cluster report: %v)\n", time.Now().Format(time.TimeOnly), err)
			return nil
		}
		fmt.Fprintf(w, "--- %s ---\n", time.Now().Format(time.TimeOnly))
		printClusterReport(w, v)
		return nil
	})
}

// watchLoop shares the poll/notification plumbing of the watch commands.
func watchLoop(client *jmxhttp.Client, w io.Writer, poll func() error) error {
	var cursor uint64
	fmt.Fprintf(w, "watching every %v (Ctrl-C to stop)\n", *watchInterval)
	for n := 0; ; n++ {
		if err := poll(); err != nil {
			return err
		}
		ns, err := client.Notifications(cursor)
		if err != nil {
			return err
		}
		for _, notif := range ns {
			cursor = notif.Seq
			if strings.HasPrefix(notif.Type, "aging.") {
				fmt.Fprintf(w, "!! %s %s %s\n", notif.Time, notif.Type, notif.Message)
			}
		}
		if *watchRounds > 0 && n+1 >= *watchRounds {
			return nil
		}
		time.Sleep(*watchInterval)
	}
}

// printVerdicts renders the JSON form of a detect.Report.
func printVerdicts(w io.Writer, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		fmt.Fprintln(w, v)
		return
	}
	fmt.Fprintf(w, "resource=%v round=%v suppressed=%v shift=%.3v entropy=%.3v\n",
		m["Resource"], m["Round"], m["Suppressed"], m["ShiftDistance"], m["Entropy"])
	if alarm, _ := m["EntropyAlarm"].(bool); alarm {
		fmt.Fprintf(w, "entropy alarm: dominant consumer %v\n", m["EntropySuspect"])
	}
	comps, _ := m["Components"].([]any)
	for i, c := range comps {
		cm, _ := c.(map[string]any)
		fmt.Fprintf(w, "%2d. %-28v alarm=%-5v score=%8.4v streak=%v samples=%v\n",
			i+1, cm["Component"], cm["Alarm"], cm["Score"], cm["Streak"], cm["Samples"])
	}
}

// printLiveMap renders a live strategy ranking; entries carrying a node
// are shown as (node, component) pairs.
func printLiveMap(w io.Writer, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		fmt.Fprintln(w, v)
		return
	}
	fmt.Fprintf(w, "strategy=%v resource=%v\n", m["Strategy"], m["Resource"])
	entries, _ := m["Entries"].([]any)
	for i, e := range entries {
		em, _ := e.(map[string]any)
		label := fmt.Sprint(em["Name"])
		if node, _ := em["Node"].(string); node != "" {
			label = node + "/" + label
		}
		fmt.Fprintf(w, "%2d. %-28v alarm=%-5v score=%8.4v consumption=%.3v usage=%.3v\n",
			i+1, label, em["Alarm"], em["Score"], em["NormConsumption"], em["NormUsage"])
	}
}

// printMap renders the JSON form of a rootcause.Ranking.
func printMap(w io.Writer, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		fmt.Fprintln(w, v)
		return
	}
	fmt.Fprintf(w, "strategy=%v resource=%v\n", m["Strategy"], m["Resource"])
	entries, _ := m["Entries"].([]any)
	for i, e := range entries {
		em, _ := e.(map[string]any)
		fmt.Fprintf(w, "%2d. %-28v score=%8.4v consumption=%.3v usage=%.3v\n",
			i+1, em["Name"], em["Score"], em["NormConsumption"], em["NormUsage"])
	}
}

// printNodes renders the aggregator's membership attribute, joined with
// each node's forwarder counters (publish errors and rounds the wire
// dropped after a failed write) when the node's forwarder bean is
// on the same plane — "-" when it is not (e.g. a remote node's plane).
func printNodes(w io.Writer, v any, client *jmxhttp.Client) {
	list, ok := v.([]any)
	if !ok {
		fmt.Fprintln(w, v)
		return
	}
	fmt.Fprintf(w, "%-12s %-8s %8s %8s %8s %8s\n", "node", "state", "rounds", "epoch", "errors", "dropped")
	for _, item := range list {
		m, _ := item.(map[string]any)
		state := "inactive"
		if b, _ := m["Active"].(bool); b {
			state = "active"
		}
		errs, drops := any("-"), any("-")
		forwarder := "aging:type=Forwarder,node=" + fmt.Sprint(m["Node"])
		if v, err := client.Get(forwarder, "Errors"); err == nil {
			errs = v
		}
		if v, err := client.Get(forwarder, "DroppedRounds"); err == nil {
			drops = v
		}
		fmt.Fprintf(w, "%-12v %-8s %8v %8v %8v %8v\n", m["Node"], state, m["Rounds"], m["Epoch"], errs, drops)
	}
}

// printOverload renders the aggregator's overload-protection counters:
// rounds shed by the ingest admission gate and cluster-alarm
// notifications dropped at the bounded pending queue. Best-effort — an
// older plane without the attributes prints nothing.
func printOverload(w io.Writer, client *jmxhttp.Client) {
	shed, err1 := client.Get(aggregatorName, "ShedRounds")
	drops, err2 := client.Get(aggregatorName, "DroppedNotifications")
	if err1 != nil || err2 != nil {
		return
	}
	fmt.Fprintf(w, "overload: shed-rounds=%v dropped-notifications=%v\n", shed, drops)
}

// printClusterReport renders the JSON form of a cluster.ClusterReport.
func printClusterReport(w io.Writer, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		fmt.Fprintln(w, v)
		return
	}
	fmt.Fprintf(w, "resource=%v epoch=%v nodes=%v/%v suppressed=%v shift=%.3v\n",
		m["Resource"], m["Epoch"], m["Active"], m["Total"], m["Suppressed"], m["ShiftDistance"])
	verdicts, _ := m["Verdicts"].([]any)
	if len(verdicts) == 0 {
		fmt.Fprintln(w, "no (node, component) pair currently flagged")
		return
	}
	for i, item := range verdicts {
		vm, _ := item.(map[string]any)
		scope := "node-local"
		if b, _ := vm["ClusterWide"].(bool); b {
			scope = "cluster-wide"
		}
		nodes, _ := vm["Nodes"].([]any)
		names := make([]string, len(nodes))
		for j, n := range nodes {
			names[j] = fmt.Sprint(n)
		}
		fmt.Fprintf(w, "%2d. %-24v on %-20s %-12s score=%8.4v since-epoch=%v\n",
			i+1, vm["Component"], strings.Join(names, "+"), scope, vm["Score"], vm["FirstEpoch"])
	}
}

// rejuvUnavailable decorates a missing-Rejuvenator error with the flag
// that enables the actuation plane.
func rejuvUnavailable(err error) error {
	if strings.Contains(err.Error(), "not registered") {
		return fmt.Errorf("%w (the actuation plane needs tpcwsim -nodes N -rejuvenate)", err)
	}
	return err
}

// printRejuvStatus renders the Rejuvenator bean's Status and Counters
// attributes: one row per node's state machine, then the totals.
func printRejuvStatus(w io.Writer, epoch, status, counters any) {
	fmt.Fprintf(w, "epoch=%v\n", epoch)
	if list, ok := status.([]any); ok {
		fmt.Fprintf(w, "%-12s %-13s %-24s %4s %8s %9s %6s %12s\n",
			"node", "state", "suspect", "hold", "since", "cooldown", "cycles", "freed")
		for _, item := range list {
			m, _ := item.(map[string]any)
			suspect := fmt.Sprint(m["Component"])
			if suspect == "" {
				suspect = "-"
			}
			fmt.Fprintf(w, "%-12v %-13v %-24s %4v %8v %9v %6v %12v\n",
				m["Node"], m["State"], suspect, m["Hold"], m["SinceEpoch"],
				m["CooldownUntil"], m["Cycles"], m["FreedBytes"])
		}
	} else {
		fmt.Fprintln(w, status)
	}
	if m, ok := counters.(map[string]any); ok {
		fmt.Fprintf(w, "rejuvenations=%v freed=%v rollbacks=%v control-lost=%v forced-drains=%v vetoes=%v\n",
			m["Rejuvenations"], m["FreedBytes"], m["Rollbacks"],
			m["ControlLost"], m["ForcedDrains"], m["ClusterWideVetoes"])
	} else {
		fmt.Fprintln(w, counters)
	}
}

// printRejuvHistory renders the Rejuvenator's transition log.
func printRejuvHistory(w io.Writer, v any) {
	list, ok := v.([]any)
	if !ok {
		fmt.Fprintln(w, v)
		return
	}
	if len(list) == 0 {
		fmt.Fprintln(w, "no actuation yet")
		return
	}
	for _, item := range list {
		m, _ := item.(map[string]any)
		fmt.Fprintf(w, "epoch %6v  %-12v %-12v -> %-12v %v\n",
			m["Epoch"], m["Node"], m["From"], m["To"], m["Note"])
	}
}

// nanosDuration renders a JSON-decoded nanosecond count as a duration.
func nanosDuration(v any) time.Duration {
	f, _ := v.(float64)
	return time.Duration(int64(f))
}

// parseValue turns a CLI literal into a JSON-compatible value.
func parseValue(s string) any {
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return n
	}
	return s
}
