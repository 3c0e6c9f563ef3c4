// Coupled demonstrates the related-work claim of the paper (§II): the
// Pinpoint-style failure-correlation baseline cannot separate components
// that are always used together, while the resource-component map can.
//
// The home servlet always invokes the Promo service. Home leaks memory and
// fails intermittently; both components appear in exactly the same request
// traces, so Pinpoint ties them — but only home retains memory.
//
//	go run ./examples/coupled [-minutes 30] [-ebs 50]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/tpcw"
)

func main() {
	minutes := flag.Int("minutes", 30, "virtual minutes to run")
	ebs := flag.Int("ebs", 50, "emulated browser population")
	flag.Parse()

	stack, err := repro.NewStack(repro.StackConfig{
		Seed:          42,
		Monitored:     true,
		CollectTraces: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	// Promote the Promo service to a monitored component.
	if err := stack.Framework.InstrumentComponent(tpcw.CompPromoSvc, stack.App.Promo); err != nil {
		log.Fatal(err)
	}
	if _, err := stack.InjectLeak(tpcw.CompHome, 100<<10, 50, 7); err != nil {
		log.Fatal(err)
	}
	// The aging component fails every 25th request.
	count := 0
	agingErr := errors.New("injected aging failure")
	fail := &repro.Aspect{
		Name:     "inject.fail.home",
		Order:    90,
		Pointcut: repro.MustPointcut("execution(tpcw.home.Service)"),
		Around: func(jp *repro.JoinPoint, proceed repro.Proceed) (any, error) {
			res, err := proceed()
			count++
			if err == nil && count%25 == 0 {
				return nil, agingErr
			}
			return res, err
		},
	}
	if err := stack.Weaver.Register(fail); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %d virtual minutes at %d EBs...\n\n", *minutes, *ebs)
	stack.Run(time.Duration(*minutes)*time.Minute, *ebs)

	fmt.Println("Pinpoint (failure correlation over request traces):")
	fmt.Println(repro.PinpointBaseline{}.Analyze(stack.Traces.Traces()))
	fmt.Println("Resource-component map (memory):")
	fmt.Println(stack.Framework.Manager().Map(repro.ResourceMemory))
	fmt.Println("note how pinpoint scores tpcw.home and tpcw.svc.Promo identically —")
	fmt.Println("they share every trace — while the map isolates tpcw.home.")
}
