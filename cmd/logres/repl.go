package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"logres"
)

// repl runs the interactive loop. Input forms:
//
//	?- goal .                  evaluate a goal immediately
//	mode/rules/… … end.        a module, applied when `end.` arrives
//	.dump                      print the current instance
//	.schema                    print the schema
//	.explain                   print program structure and statistics
//	.modules                   list registered modules
//	.call NAME                 invoke a registered module
//	.register <module…end.>    register the next module instead of applying
//	.save FILE / .load FILE    snapshot I/O
//	.trace on|off              toggle a human-readable evaluation trace
//	.metrics                   print the metrics registry (Prometheus text)
//	.help / .quit
func repl(db *logres.Database, in io.Reader, out io.Writer) error {
	// Ctrl-C during an evaluation cancels it and returns to the prompt;
	// module application is all-or-nothing, so the database is unchanged.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	registering := false
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(out, "logres> ")
		} else {
			fmt.Fprint(out, "   ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case buf.Len() == 0 && strings.HasPrefix(trimmed, "."):
			if done := replCommand(db, trimmed, out, &registering, sig); done {
				return nil
			}
			prompt()
			continue
		case buf.Len() == 0 && trimmed == "":
			prompt()
			continue
		case buf.Len() == 0 && strings.HasPrefix(trimmed, "?-"):
			var ans *logres.Answer
			err := withInterrupt(sig, func(ctx context.Context) error {
				var err error
				ans, err = db.QueryContext(ctx, trimmed)
				return err
			})
			if err != nil {
				printEvalError(out, err)
			} else {
				writeAnswer(out, ans)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if trimmed == "end." {
			src := buf.String()
			buf.Reset()
			if registering {
				registering = false
				if err := db.Register(src); err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprintln(out, "registered")
				}
			} else {
				var res *logres.Result
				err := withInterrupt(sig, func(ctx context.Context) error {
					var err error
					res, err = db.ExecContext(ctx, src)
					return err
				})
				if err != nil {
					printEvalError(out, err)
				} else {
					fmt.Fprintf(out, "applied (%s)\n", res.Mode)
					if res.Answer != nil {
						writeAnswer(out, res.Answer)
					}
				}
			}
		}
		prompt()
	}
	return scanner.Err()
}

// withInterrupt runs one evaluation under a context canceled by the next
// interrupt signal; the watcher goroutine is released when fn returns.
func withInterrupt(sig <-chan os.Signal, fn func(ctx context.Context) error) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			cancel()
		case <-done:
		}
	}()
	return fn(ctx)
}

// printEvalError distinguishes an interrupt (the evaluation was canceled,
// the database is untouched) from an ordinary evaluation error.
func printEvalError(out io.Writer, err error) {
	var ce *logres.CanceledError
	if errors.As(err, &ce) {
		fmt.Fprintln(out, "interrupted (database unchanged):", err)
		return
	}
	var conflict *logres.ConflictError
	if errors.As(err, &conflict) {
		fmt.Fprintln(out, "conflict (database unchanged):", err)
		return
	}
	fmt.Fprintln(out, "error:", err)
}

// replCommand executes a dot command; it reports whether the REPL should
// exit.
func replCommand(db *logres.Database, cmd string, out io.Writer, registering *bool, sig <-chan os.Signal) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Fprintln(out, "commands: ?- goal.   <module…end.>   .dump .schema .explain .modules")
		fmt.Fprintln(out, "          .call NAME .register .save FILE .load FILE")
		fmt.Fprintln(out, "          .trace on|off .metrics .quit")
	case ".trace":
		switch {
		case len(fields) == 2 && fields[1] == "on":
			db.SetTracer(logres.NewTextTracer(out))
			fmt.Fprintln(out, "tracing on")
		case len(fields) == 2 && fields[1] == "off":
			db.SetTracer(nil)
			fmt.Fprintln(out, "tracing off")
		default:
			fmt.Fprintln(out, "usage: .trace on|off")
		}
	case ".metrics":
		if _, err := db.Metrics().WriteTo(out); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case ".dump":
		s, err := db.InstanceString()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprint(out, s)
		}
	case ".schema":
		fmt.Fprint(out, db.Schema())
	case ".explain":
		s, err := db.Explain()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprint(out, s)
		}
	case ".modules":
		for _, n := range db.Modules() {
			fmt.Fprintln(out, " ", n)
		}
	case ".register":
		*registering = true
		fmt.Fprintln(out, "enter a named module terminated by end.")
	case ".call":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .call NAME")
			break
		}
		var res *logres.Result
		err := withInterrupt(sig, func(ctx context.Context) error {
			var err error
			res, err = db.CallContext(ctx, fields[1])
			return err
		})
		if err != nil {
			printEvalError(out, err)
			break
		}
		fmt.Fprintf(out, "applied %s (%s)\n", fields[1], res.Mode)
		if res.Answer != nil {
			writeAnswer(out, res.Answer)
		}
	case ".save":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .save FILE")
			break
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		err = db.Save(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprintln(out, "saved", fields[1])
		}
	case ".load":
		fmt.Fprintln(out, "use `logres -load FILE` to start from a snapshot")
	default:
		fmt.Fprintf(out, "unknown command %s (try .help)\n", fields[0])
	}
	return false
}

func writeAnswer(out io.Writer, ans *logres.Answer) {
	if len(ans.Vars) == 0 {
		if len(ans.Rows) > 0 {
			fmt.Fprintln(out, "yes")
		} else {
			fmt.Fprintln(out, "no")
		}
		return
	}
	fmt.Fprintln(out, strings.Join(ans.Vars, "\t"))
	for _, row := range ans.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Fprintln(out, strings.Join(cells, "\t"))
	}
	fmt.Fprintf(out, "(%d answers)\n", len(ans.Rows))
}
