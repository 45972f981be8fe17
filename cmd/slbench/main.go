// Command slbench regenerates the paper's evaluation artifacts: every
// table and figure of Section 7 has a driver.
//
//	slbench -exp all
//	slbench -exp table1
//	slbench -exp table5 -scale 2
//	slbench -exp table6
//	slbench -exp figure7 -workload openssl
//	slbench -exp figure8 -window 1s
//	slbench -exp figure9
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/harness"
)

func main() {
	if err := run(); err != nil {
		cli.Fatalf("slbench: %v", err)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table5|table6|figure7|figure8|figure9|ablation|fleet|scalable|all")
		scale    = flag.Int("scale", 1, "workload input scale factor")
		seed     = flag.Int64("seed", 7, "clustering seed")
		window   = flag.Duration("window", 500*time.Millisecond, "figure 8 measurement window")
		workload = flag.String("workload", "openssl", "figure 7 workload")
		repeats  = flag.Int("repeats", 5, "table 1 timing repeats")
	)
	flag.Parse()

	run := func(name string, fn func() error) error {
		if *exp != "all" && *exp != name {
			return nil
		}
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := run("table1", func() error {
		res, err := harness.Table1(*repeats)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := run("table5", func() error {
		res, err := harness.Table5(*scale, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := run("table6", func() error {
		res, err := harness.Table6()
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := run("figure7", func() error {
		glam, sl, summary, err := harness.Figure7(*workload, *scale, *seed)
		if err != nil {
			return err
		}
		fmt.Println(summary)
		glamPath := fmt.Sprintf("figure7-%s-glamdring.dot", *workload)
		slPath := fmt.Sprintf("figure7-%s-securelease.dot", *workload)
		if err := os.WriteFile(glamPath, []byte(glam), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(slPath, []byte(sl), 0o644); err != nil {
			return err
		}
		fmt.Printf("DOT files written: %s, %s (render with graphviz)\n", glamPath, slPath)
		return nil
	}); err != nil {
		return err
	}

	if err := run("figure8", func() error {
		res, err := harness.Figure8(*window)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := run("figure9", func() error {
		res, err := harness.Figure9(*scale, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := run("ablation", func() error {
		part, err := harness.AblationPartition(*scale, *seed)
		if err != nil {
			return err
		}
		fmt.Println(part.Render())
		batch, err := harness.AblationBatch(2000)
		if err != nil {
			return err
		}
		fmt.Println(batch.Render())
		dsweep, err := harness.AblationD(4000)
		if err != nil {
			return err
		}
		fmt.Println(dsweep.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := run("fleet", func() error {
		res, err := harness.Fleet([]harness.FleetClient{
			{Name: "stable", Health: 0.99, Reliability: 0.95, Weight: 1},
			{Name: "flaky-net", Health: 0.95, Reliability: 0.6, Weight: 1},
			{Name: "crashy", Health: 0.5, Reliability: 0.9, Weight: 1},
			{Name: "weak", Health: 0.7, Reliability: 0.7, Weight: 0.5},
		}, 6, 100_000, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := run("scalable", func() error {
		res, err := harness.ScalableSGX(*scale, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	}); err != nil {
		return err
	}

	return nil
}
