// Cpuleak demonstrates the paper's future-work direction: determining CPU
// and thread aging with the same framework. A CPU hog is injected into the
// search_results servlet and a thread leak into buy_confirm; the CPU and
// thread maps localise both.
//
//	go run ./examples/cpuleak [-minutes 30] [-ebs 50]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/tpcw"
)

func main() {
	minutes := flag.Int("minutes", 30, "virtual minutes to run")
	ebs := flag.Int("ebs", 50, "emulated browser population")
	flag.Parse()

	stack, err := repro.NewStack(repro.StackConfig{Seed: 42, Monitored: true})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	hog := &faultinject.CPUHog{
		Component: tpcw.CompSearchResults,
		Extra:     40 * time.Millisecond,
	}
	if err := stack.Inject(hog); err != nil {
		log.Fatal(err)
	}
	threads := &faultinject.ThreadLeak{
		Component: tpcw.CompBuyConfirm,
		N:         10,
		Agent:     stack.Framework.ThreadAgent(),
		Heap:      stack.Heap,
		Seed:      5,
	}
	if err := stack.Inject(threads); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %d virtual minutes at %d EBs with a CPU hog in %s and a thread leak in %s...\n\n",
		*minutes, *ebs, tpcw.CompSearchResults, tpcw.CompBuyConfirm)
	stack.Run(time.Duration(*minutes)*time.Minute, *ebs)

	fmt.Println("CPU map (trend strategy):")
	fmt.Println(stack.Rank(repro.ResourceCPU, repro.TrendStrategy{}))
	fmt.Println("Thread map (paper strategy):")
	fmt.Println(stack.Framework.Manager().Map(repro.ResourceThreads))
	fmt.Printf("hog slowed %d requests; %d threads leaked and never terminated\n",
		hog.Hits(), threads.Leaked())
}
