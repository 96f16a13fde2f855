(* The explore workload: domain-parallel DPOR ([Pexplore]) over the
   Delaunay refinement workload (4 transactions, 8 points, at most 32 mesh
   points, forward gatekeeper) at 1 and 2 domains.

   The instance is pinned to workload seed 26, whose tree runs to
   exhaustion at 6,720 schedules.  Other point sets change the tree size by
   orders of magnitude, and some (seeds 7 and 42) livelock on the
   conflict-retry ladder at 16-22 schedules/s, so the run's --seed does not
   pick the point set; [budget] caps a run should the tree ever grow. *)

open Commlat_runtime
open Commlat_sched

let workload_seed = 26
let txns = 4
let points = 8
let max_pts = 32
let budget = 20_000
let expected_schedules = 6_720
let expected_states = 6_720

(* Set-ups timed per exploration: one construction takes about 0.1 ms, so
   the median of several keeps one timer hiccup out of [setup_s]. *)
let setups_per_run = 10

let setup () =
  let t0 = Probe.now_ns () in
  let w =
    match
      Workload.delaunay ~txns ~points ~seed:workload_seed ~max_pts Protect.Forward_gk
    with
    | Ok w -> w
    | Error e -> failwith e
  in
  (w, Probe.secs_of_ns (Probe.now_ns () - t0))

type run = {
  wall_s : float;
  cpu_s : float;
  words : float;
  report : Pexplore.report;
  cal : float;  (** host-speed factor from the references around it; 1 if none *)
}

let config domains =
  {
    Pexplore.base = { Explore.default_config with Explore.max_schedules = budget };
    domains;
    dedup = true;
  }

(* One exploration to exhaustion; raises [Failure] on a violation, a cut
   search, a distinct-trace count other than the pinned one, or (at 1
   domain, where the visit order is the sequential DFS's) a schedule count
   other than the pinned one. *)
let explore ~domains (w : Workload.t) =
  let cpu0 = Probe.cpu_s ~domains and w0 = Gc.minor_words () and t0 = Probe.now_ns () in
  let report = Pexplore.explore ~config:(config domains) w.Workload.make in
  let wall_s = Probe.secs_of_ns (Probe.now_ns () - t0) in
  let cpu_s = Probe.cpu_s ~domains -. cpu0 and words = Gc.minor_words () -. w0 in
  (match report.Pexplore.verdict with
  | Some f -> failwith ("explore found a violation: " ^ f.Explore.f_detail)
  | None -> ());
  if not report.Pexplore.exhausted then failwith "explore hit its schedule budget";
  if domains = 1 && report.Pexplore.c.Explore.runs <> expected_schedules then
    failwith
      (Printf.sprintf "explore ran %d schedules, want %d" report.Pexplore.c.Explore.runs
         expected_schedules);
  if report.Pexplore.states <> expected_states then
    failwith
      (Printf.sprintf "explore saw %d states, want %d" report.Pexplore.states expected_states);
  { wall_s; cpu_s; words; report; cal = 1.0 }

type measured = {
  rss_mb : float;  (** peak RSS after the warm-up explorations *)
  setups : float list;
  one : run list;
  two : run list;
}

(* Alternate 1- and 2-domain explorations, each on a freshly constructed
   workload between two reference runs on as many domains, until [seconds]
   have passed (at least one of each).  One untimed exploration at each
   domain count comes first; the peak RSS is read right after them, before
   any reference, so it is the program's own. *)
let measure ~seconds =
  List.iter (fun d -> ignore (explore ~domains:d (fst (setup ())))) [ 1; 2 ];
  let rss_mb = Probe.peak_rss_mb (Unix.getpid ()) in
  let stop = Probe.now_ns () + (seconds * 1_000_000_000) in
  let fresh domains =
    let r0 = Probe.reference ~domains in
    let s = List.init setups_per_run (fun _ -> setup ()) in
    let r = explore ~domains (fst (List.hd s)) in
    let r1 = Probe.reference ~domains in
    ({ r with cal = Probe.cal r0 r1 }, List.map snd s)
  in
  let rec go acc =
    if acc.one <> [] && Probe.now_ns () >= stop then acc
    else begin
      let r1, s1 = fresh 1 in
      let r2, s2 = fresh 2 in
      go { acc with setups = s1 @ s2 @ acc.setups; one = r1 :: acc.one; two = r2 :: acc.two }
    end
  in
  go { rss_mb; setups = []; one = []; two = [] }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* The first [n] schedules of the sequential DFS, as executed choices. *)
let record_schedules (w : Workload.t) ~n =
  let mk = w.Workload.make in
  let spec = (mk ()).Scheduler.spec in
  let stack = ref [ { Explore.prefix = []; sleep = [] } ] and acc = ref [] and k = ref 0 in
  while !stack <> [] && !k < n do
    match !stack with
    | [] -> ()
    | node :: rest ->
        stack := rest;
        let r =
          Scheduler.run ~max_steps:Explore.default_config.Explore.max_steps
            ~schedule:node.Explore.prefix mk
        in
        acc := r.Scheduler.choices :: !acc;
        incr k;
        let x = Explore.expand ~por:true ~spec r node in
        stack := List.rev_append x.Explore.children !stack
  done;
  List.rev !acc

type replay = { cpu_traced_s : float; cpu_plain_s : float; n_traced : int; n_plain : int }

(* Replay every schedule, every other one inside a span, so traced and
   untraced replays share the machine's conditions.  Each replay must
   complete without a violation. *)
let replay_pass (w : Workload.t) schedules =
  let id = Probe.Span.intern "sched.replay" in
  let cpu = [| 0.0; 0.0 |] and n = [| 0; 0 |] in
  List.iteri
    (fun i schedule ->
      let go () = Explore.replay ~schedule w.Workload.make in
      let k = i mod 2 in
      Probe.Span.set_request i;
      let c0 = Probe.thread_cpu_s () in
      let r = if k = 1 then Probe.Span.with_ id go else go () in
      cpu.(k) <- cpu.(k) +. (Probe.thread_cpu_s () -. c0);
      n.(k) <- n.(k) + 1;
      match Explore.failure_of_run r with
      | Some (kind, detail) -> failwith (Printf.sprintf "replay %d: %s: %s" i kind detail)
      | None -> ())
    schedules;
  { cpu_traced_s = cpu.(1); cpu_plain_s = cpu.(0); n_traced = n.(1); n_plain = n.(0) }
