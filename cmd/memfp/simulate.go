package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"memfp/internal/scenario"
)

// cmdSimulate runs declarative chaos scenarios against the real serving
// stack: memfp simulate [flags] scenarios/<name>.yaml [more.yaml ...]
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	validate := fs.Bool("validate", false, "parse and validate the scenario files, run nothing")
	shards := fs.Int("shards", 0, "serving-engine shard count (0 = one per CPU); any value gives the same report")
	seed := fs.Uint64("seed", 0, "seed override (0 = scenario's own seed)")
	out := fs.String("o", "", "write the JSON report(s) to this file or directory (default stdout)")
	verbose := fs.Bool("v", false, "log fleet generation and chaos actions to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("simulate: no scenario files given (usage: memfp simulate [flags] <file.yaml> ...)")
	}

	outDir := false
	if *out != "" {
		if st, err := os.Stat(*out); err == nil && st.IsDir() {
			outDir = true
		} else if len(files) > 1 {
			return fmt.Errorf("simulate: -o must be a directory when running several scenarios")
		}
	}

	failed := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		s, err := scenario.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if *validate {
			fmt.Printf("%s: ok (%s: %d templates, %d chaos actions, %d assertions)\n",
				file, s.Name, len(s.Fleet.Templates), len(s.Chaos), len(s.Assertions))
			continue
		}
		if *seed != 0 {
			s.Seed = *seed
		}
		opt := scenario.Options{Shards: *shards}
		if *verbose {
			opt.Log = os.Stderr
		}
		start := time.Now()
		rep, err := scenario.Run(context.Background(), s, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		rep.WallMS = time.Since(start).Milliseconds()

		blob, err := rep.CanonicalJSON()
		if err != nil {
			return err
		}
		switch {
		case *out == "":
			os.Stdout.Write(blob)
		default:
			dst := *out
			if outDir {
				dst = filepath.Join(*out, s.Name+".report.json")
			}
			if err := os.WriteFile(dst, blob, 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "%s (%d ms)\n", rep.Summary(), rep.WallMS)
		if !rep.Passed {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("simulate: %d scenario(s) failed their assertions", failed)
	}
	return nil
}
