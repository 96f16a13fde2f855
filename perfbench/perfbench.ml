(* The repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 --server EXE

   Workloads: serve-read, serve-write, apps-boruvka, explore (see
   BENCHMARK.json for why each is there).  With --trace 0 it prints the
   end-to-end metrics, with --trace 1 the per-layer ones from a separate
   traced pass; either way every output is checked, one line per metric is
   printed, and the last line is the JSON result.  The exit status is 0
   only when every check passed. *)

open Commlat_server
module Obs = Commlat_obs.Obs
module Span = Probe.Span

let end_to_end =
  [
    ("p50_ms_cal", "ms");
    ("cpu_us_per_op_cal", "us");
    ("ops_per_s_2d_cal", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

(* Layers a workload does not reach report 0. *)
let per_layer =
  [
    ("wire.decode_req_ns", "ns");
    ("wire.encode_resp_ns", "ns");
    ("wire.req_bytes", "B");
    ("wire.resp_bytes", "B");
    ("server.unattributed_us_per_op", "us");
    ("gen.frames_per_read", "count");
    ("engine.try_req_ns.get", "ns");
    ("engine.minor_words.get", "words");
    ("engine.ro_fast_share", "ratio");
    ("guard.count_ro", "count");
    ("guard.protect_all_ns", "ns");
    ("gk.batch_check_ns", "ns");
    ("engine.try_req_ns.put", "ns");
    ("engine.try_req_ns.remove", "ns");
    ("engine.commit_ns", "ns");
    ("engine.minor_words.put", "words");
    ("engine.conflict_aborts_per_req", "ratio");
    ("engine.route_hash_ns", "ns");
    ("gk.checks_per_invocation", "ratio");
    ("gk.checks_avoided_share", "ratio");
    ("gk.conflicts_per_invocation", "ratio");
    ("gk.overflow_insert_share", "ratio");
    ("executor.operator_us_1d", "us");
    ("executor.operator_us_2d", "us");
    ("detector.invoke_us_1d", "us");
    ("detector.invoke_us_2d", "us");
    ("executor.aborts_per_commit_2d", "ratio");
    ("executor.retries_2d", "count");
    ("executor.parallelism_2d", "ratio");
    ("gk.rollbacks_per_invocation", "ratio");
    ("alock.denials_per_acquisition", "ratio");
    ("gc.minor_words_per_op_1d", "words");
    ("explore.schedules", "count");
    ("explore.steps_per_schedule", "count");
    ("explore.sleep_hits", "count");
    ("explore.pruned", "count");
    ("explore.dedup_hits_2d", "count");
    ("explore.steals_2d", "count");
    ("explore.steal_misses_2d", "count");
    ("sched.replay_us", "us");
    ("trace.overhead_us_per_op", "us");
    ("gen.p99_ms", "ms");
    ("gen.max_rps", "1/s");
    ("gen.lag_max_ms", "ms");
    ("host.steal_share", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v

(* Every metric is printed as it is produced; the JSON keeps the set the
   mode asks for. *)
let report name v =
  set name v;
  Printf.printf "%-32s %.6g %s\n%!" name v (unit_of name)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The uncalibrated figure behind a calibrated one: printed, not in the
   JSON result. *)
let raw name v u = Printf.printf "%-32s %.6g %s (uncalibrated)\n%!" name v u

(* Counter [name] of [snap], less its value in [base]. *)
let cnt ?base snap name =
  Obs.counter_value snap name
  - match base with Some b -> Obs.counter_value b name | None -> 0

let gk_metrics ?base snap =
  let cnt = cnt ?base snap in
  let inv = cnt "invocations" in
  let checks = cnt "checks" and avoided = cnt "checks_avoided" in
  let ins = cnt "shard_inserts" and ovf = cnt "overflow_inserts" in
  report "gk.checks_per_invocation" (ratio checks inv);
  report "gk.checks_avoided_share" (ratio avoided (checks + avoided));
  report "gk.conflicts_per_invocation" (ratio (cnt "conflicts") inv);
  report "gk.overflow_insert_share" (ratio ovf (ins + ovf));
  report "gk.rollbacks_per_invocation" (ratio (cnt "rollbacks") inv)

let attempted = ref 0
let failed = ref 0

(* ------------------------------------------------------------------ *)
(* serve-read / serve-write                                            *)
(* ------------------------------------------------------------------ *)

let serve ~mix ~seed ~seconds ~trace ~exe =
  let open Serve_wl in
  let cdf = Load.zipf_cdf ~keys ~theta in
  let reps = if trace then 1 else setup_reps in
  let r = socket_run ~exe ~mix ~seed ~seconds ~reps ~saturate:trace cdf in
  let m = r.measured in
  let cpu_us = m.cpu_s /. float_of_int m.n_done *. 1e6 in
  (* One factor for the whole run, the median of the segments': the
     reference runs in the generator, not in the server, and within one
     run a segment's own factor moved by up to 0.4 while its uncalibrated
     p50 stayed within 0.1. *)
  let cal = Probe.median (List.map (fun g -> g.cal) r.segs) in
  let per_seg f = Probe.median (List.map (fun g -> f g.res) r.segs) *. cal in
  Printf.printf "latency samples %d in %d segments (p50 per segment)\n" m.n_done
    (List.length r.segs);
  Printf.printf "per segment, uncalibrated p50 ms / host-speed factor: %s\n"
    (String.concat " "
       (List.map
          (fun g -> Printf.sprintf "%.3f/%.3f" (Probe.quantile g.res.lat_ms 0.5) g.cal)
          r.segs));
  report "p50_ms_cal" (per_seg (fun s -> Probe.quantile s.lat_ms 0.5));
  report "cpu_us_per_op_cal" (per_seg (fun s -> s.cpu_s /. float_of_int s.n_done *. 1e6));
  report "ops_per_s_2d_cal" (float_of_int m.n_done /. m.span_s);
  raw "p50_ms" (Probe.quantile m.lat_ms 0.5) "ms";
  raw "cpu_us_per_op" cpu_us "us";
  report "setup_s" r.setup_s;
  report "peak_rss_mb" r.rss_mb;
  report "gen.p99_ms" (Probe.quantile m.lat_ms 0.99);
  if trace then report "gen.max_rps" r.max_rps;
  report "gen.lag_max_ms" m.lag_max_ms;
  report "host.steal_share" r.steal;
  report "gen.frames_per_read" r.frames_per_read;
  let tally = r.tally in
  if trace then begin
    let eng = Engine.create () in
    let rs = replay ~mix ~seed ~seconds cdf tally eng in
    let per_traced x = x /. float_of_int rs.n_traced in
    let n = rs.n_traced + rs.n_plain in
    report "trace.overhead_us_per_op"
      ((per_traced rs.cpu_traced_s -. (rs.cpu_plain_s /. float_of_int rs.n_plain)) *. 1e6);
    let layer_ns =
      List.fold_left
        (fun acc s -> acc + Span.self_ns s)
        0
        [
          "wire.decode_req"; "engine.route_hash"; "engine.try_req.get";
          "engine.try_req.put"; "engine.try_req.remove"; "wire.encode_resp";
          "engine.commit";
        ]
    in
    report "server.unattributed_us_per_op"
      (cpu_us -. (per_traced (float_of_int layer_ns) /. 1e3));
    report "wire.decode_req_ns" (Span.mean_self_ns "wire.decode_req");
    report "wire.encode_resp_ns" (Span.mean_self_ns "wire.encode_resp");
    report "wire.req_bytes" (float_of_int rs.req_bytes /. float_of_int n);
    report "wire.resp_bytes" (float_of_int rs.resp_bytes /. float_of_int n);
    report "engine.route_hash_ns" (Span.mean_self_ns "engine.route_hash");
    report "engine.commit_ns" (Span.mean_self_ns "engine.commit");
    List.iter
      (fun meth ->
        report ("engine.try_req_ns." ^ meth) (Span.mean_self_ns ("engine.try_req." ^ meth)))
      [ "get"; "put"; "remove" ];
    List.iter
      (fun meth ->
        let w, k = Option.value (Hashtbl.find_opt rs.words meth) ~default:(0.0, 0) in
        report ("engine.minor_words." ^ meth) (if k = 0 then 0.0 else w /. float_of_int k))
      [ "get"; "put" ];
    report "gc.minor_words_per_op_1d"
      (per_traced (Hashtbl.fold (fun _ (w, _) acc -> acc +. w) rs.words 0.0));
    let es = cnt ~base:rs.engine0 (Obs.snapshot eng.Engine.obs) in
    report "engine.ro_fast_share" (ratio (es "ro_fast_path") (es "requests"));
    report "engine.conflict_aborts_per_req" (ratio (es "conflict_aborts") n);
    gk_metrics ~base:rs.kvmap0
      ((Engine.find_exposed eng "kvmap").Engine.det.Commlat_core.Detector.snapshot ());
    let guards, prot_ns, chk_ns = read_probes ~mix ~seed cdf eng in
    report "guard.count_ro" (float_of_int guards);
    report "guard.protect_all_ns" prot_ns;
    report "gk.batch_check_ns" chk_ns
  end;
  attempted := !attempted + tally.attempted;
  failed := !failed + tally.failed;
  if tally.first_bad <> "" then Printf.printf "first wrong reply: %s\n" tally.first_bad

(* ------------------------------------------------------------------ *)
(* apps-boruvka                                                        *)
(* ------------------------------------------------------------------ *)

let per_commit (s : Apps_wl.solve) x = x /. float_of_int s.Apps_wl.stats.Commlat_runtime.Executor.committed

let apps ~seed ~seconds ~trace =
  let open Apps_wl in
  let host0 = Probe.host_cpu () in
  if not trace then begin
    let r = measure ~seed ~seconds in
    (* the two warm-up jobs are checked too *)
    attempted := !attempted + 2 + List.length r.one + List.length r.two;
    Printf.printf "solves: %d at 1 domain, %d at 2 domains\n" (List.length r.one)
      (List.length r.two);
    let med f l = Probe.median (List.map f l) in
    Printf.printf "per 1-domain job, uncalibrated ms / host-speed factor: %s\n"
      (String.concat " " (List.rev_map (fun s -> Printf.sprintf "%.1f/%.3f" (s.wall_s *. 1e3) s.cal) r.one));
    report "p50_ms_cal" (med (fun s -> s.wall_s *. s.cal *. 1e3) r.one);
    report "cpu_us_per_op_cal" (med (fun s -> per_commit s s.cpu_s *. s.cal *. 1e6) r.one);
    report "ops_per_s_2d_cal" (med (fun s -> 1.0 /. per_commit s (s.wall_s *. s.cal)) r.two);
    report "setup_s" (Probe.median r.setups);
    report "peak_rss_mb" r.rss_mb;
    raw "p50_ms" (med (fun s -> s.wall_s *. 1e3) r.one) "ms";
    raw "cpu_us_per_op" (med (fun s -> per_commit s s.cpu_s *. 1e6) r.one) "us";
    raw "ops_per_s_2d" (med (fun s -> 1.0 /. per_commit s s.wall_s) r.two) "1/s"
  end
  else begin
    let expected_weight = reference_weight () in
    let plain d = solve ~domains:d ~seed ~expected_weight (fst (setup ())) in
    let traced d = solve ~traced:true ~domains:d ~seed ~expected_weight (fst (setup ())) in
    (* plain and traced 1-domain solves alternate, so the overhead is not
       the machine's drift between two passes *)
    let one = plain 1 in
    Span.clear ();
    let t1 = traced 1 in
    let one' = plain 1 in
    let t1' = traced 1 in
    report "executor.operator_us_1d" (Span.mean_self_ns "executor.operator" /. 1e3);
    report "detector.invoke_us_1d" (Span.mean_total_ns "detector.invoke" /. 1e3);
    let two = plain 2 in
    Span.clear ();
    ignore (traced 2);
    report "executor.operator_us_2d" (Span.mean_self_ns "executor.operator" /. 1e3);
    report "detector.invoke_us_2d" (Span.mean_total_ns "detector.invoke" /. 1e3);
    attempted := !attempted + 6;
    report "trace.overhead_us_per_op"
      (per_commit t1 (t1.cpu_s +. t1'.cpu_s -. one.cpu_s -. one'.cpu_s) /. 2.0 *. 1e6);
    report "gc.minor_words_per_op_1d" (per_commit one one.words);
    let st = two.stats in
    report "executor.aborts_per_commit_2d"
      (ratio st.Commlat_runtime.Executor.aborted st.Commlat_runtime.Executor.committed);
    report "executor.retries_2d" (float_of_int two.retries);
    report "executor.parallelism_2d" (Commlat_runtime.Executor.parallelism st);
    gk_metrics two.snap_uf;
    report "alock.denials_per_acquisition"
      (ratio (cnt two.snap_alock "lock_denials") (cnt two.snap_alock "lock_acquisitions"))
  end;
  if trace then report "peak_rss_mb" (Probe.peak_rss_mb (Unix.getpid ()));
  report "host.steal_share" (Probe.steal_share host0)

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

let explore ~seconds ~trace =
  let open Explore_wl in
  let host0 = Probe.host_cpu () in
  let per_sched (r : run) x = x /. float_of_int r.report.Commlat_sched.Pexplore.c.Commlat_sched.Explore.runs in
  if not trace then begin
    let r = measure ~seconds in
    (* the two warm-up jobs are checked too *)
    attempted := !attempted + 2 + List.length r.one + List.length r.two;
    Printf.printf "explorations: %d at 1 domain, %d at 2 domains\n" (List.length r.one)
      (List.length r.two);
    let med f l = Probe.median (List.map f l) in
    Printf.printf "per 1-domain job, uncalibrated ms / host-speed factor: %s\n"
      (String.concat " " (List.rev_map (fun s -> Printf.sprintf "%.1f/%.3f" (s.wall_s *. 1e3) s.cal) r.one));
    report "p50_ms_cal" (med (fun s -> s.wall_s *. s.cal *. 1e3) r.one);
    report "cpu_us_per_op_cal" (med (fun s -> per_sched s s.cpu_s *. s.cal *. 1e6) r.one);
    report "ops_per_s_2d_cal" (med (fun s -> 1.0 /. per_sched s (s.wall_s *. s.cal)) r.two);
    report "setup_s" (Probe.median r.setups);
    report "peak_rss_mb" r.rss_mb;
    raw "p50_ms" (med (fun s -> s.wall_s *. 1e3) r.one) "ms";
    raw "cpu_us_per_op" (med (fun s -> per_sched s s.cpu_s *. 1e6) r.one) "us";
    raw "ops_per_s_2d" (med (fun s -> 1.0 /. per_sched s s.wall_s) r.two) "1/s"
  end
  else begin
    let open Commlat_sched in
    let w, _ = setup () in
    let one = explore ~domains:1 w in
    let two = explore ~domains:2 w in
    let c = one.report.Pexplore.c in
    report "explore.schedules" (float_of_int c.Explore.runs);
    report "explore.steps_per_schedule" (ratio c.Explore.steps c.Explore.runs);
    report "explore.sleep_hits" (float_of_int c.Explore.sleep_hits);
    report "explore.pruned" (float_of_int c.Explore.pruned);
    report "gc.minor_words_per_op_1d" (per_sched one one.words);
    let sum f = Array.fold_left (fun a d -> a + f d) 0 two.report.Pexplore.per_domain in
    report "explore.dedup_hits_2d" (float_of_int two.report.Pexplore.dedup_hits);
    report "explore.steals_2d" (float_of_int (sum (fun d -> d.Pexplore.d_steals)));
    report "explore.steal_misses_2d" (float_of_int (sum (fun d -> d.Pexplore.d_steal_misses)));
    let schedules = record_schedules w ~n:2000 in
    let r = replay_pass w schedules in
    report "sched.replay_us" (Span.mean_total_ns "sched.replay" /. 1e3);
    report "trace.overhead_us_per_op"
      (((r.cpu_traced_s /. float_of_int r.n_traced)
       -. (r.cpu_plain_s /. float_of_int r.n_plain))
      *. 1e6);
    attempted := !attempted + 2 + List.length schedules
  end;
  if trace then report "peak_rss_mb" (Probe.peak_rss_mb (Unix.getpid ()));
  report "host.steal_share" (Probe.steal_share host0)

(* ------------------------------------------------------------------ *)
(* Command line and result                                             *)
(* ------------------------------------------------------------------ *)

let json_result ~correct ~trace =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct (max 1 !attempted) !failed;
  let wanted = if trace then per_layer else end_to_end in
  List.iteri
    (fun i (name, u) ->
      let v = Option.value (Hashtbl.find_opt values name) ~default:0.0 in
      let v = if Float.is_finite v then v else 0.0 in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name v u)
    wanted;
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/commlat_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve-read|serve-write|apps-boruvka|explore");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer run");
      ("--server", Arg.Set_string exe, "commlat CLI binary for the serve child");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seconds = max 1 !seconds and seed = !seed in
  List.iter
    (fun sg ->
      Sys.set_signal sg
        (Sys.Signal_handle
           (fun _ ->
             Serve_wl.kill_live ();
             exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let guarded f =
    match f () with
    | ok -> ok
    | exception (Serve_wl.Failed m | Failure m) ->
        Printf.printf "FAILED: %s\n" m;
        false
    | exception e ->
        Printf.printf "FAILED: %s\n" (Printexc.to_string e);
        false
  in
  let correct =
    match !workload with
    | ("serve-read" | "serve-write") as w ->
        let mix = if w = "serve-read" then Load.Read_heavy else Load.Write_heavy in
        guarded (fun () ->
            serve ~mix ~seed ~seconds ~trace ~exe:!exe;
            !failed = 0)
    | "apps-boruvka" ->
        guarded (fun () ->
            apps ~seed ~seconds ~trace;
            true)
    | "explore" ->
        guarded (fun () ->
            explore ~seconds ~trace;
            true)
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  Serve_wl.kill_live ();
  if (not correct) && !failed = 0 then incr failed;
  if trace then begin
    let path = Printf.sprintf "%s/trace-%s.tsv" Serve_wl.work_dir !workload in
    (try Unix.mkdir Serve_wl.work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.write_log path;
    Printf.printf "spans written to %s\n" path
  end;
  print_endline (json_result ~correct ~trace);
  exit (if correct then 0 else 1)
