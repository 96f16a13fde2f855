(* The apps-boruvka workload: Boruvka MST on a 120x120 mesh, union-find
   behind the general gatekeeper composed with the abstract-lock component
   map, run in-process through [Executor.run_domains] at 1 and 2 domains.

   The mesh is pinned to [Mesh.generate]'s default seed 7: the MST's merge
   order sets the work per commit, and across mesh seeds 1..8 a 1-domain
   solve allocates 95M to 153M minor words (seed 7: 108M, near the
   median).  The run's --seed drives the executor's backoff jitter. *)

open Commlat_core
open Commlat_adts
open Commlat_apps
open Commlat_runtime
module Obs = Commlat_obs.Obs

let rows = 120
let cols = 120
let mesh_seed = 7

type inst = { mesh : Mesh.t; t : Boruvka.t; det : Detector.t }

(* Set-up: build the mesh, the app state and the detector. *)
let setup () =
  let t0 = Probe.now_ns () in
  let mesh = Mesh.generate ~seed:mesh_seed ~rows ~cols () in
  let t = Boruvka.create ~mesh () in
  let adt =
    Protect.adt
      ~hooks:(Union_find.hooks t.Boruvka.uf)
      ~connect_tracer:(Union_find.set_tracer t.Boruvka.uf)
      ()
  in
  let det = Protect.protect ~spec:(Union_find.spec ()) ~adt Protect.General_gk in
  ({ mesh; t; det }, Probe.secs_of_ns (Probe.now_ns () - t0))

type solve = {
  wall_s : float;
  cpu_s : float;
  words : float;
  stats : Executor.stats;
  retries : int;
  snap_uf : Obs.snapshot;
  snap_alock : Obs.snapshot;
  cal : float;  (** host-speed factor from the references around it; 1 if none *)
}

(* Every closure of [d] as a span. *)
let traced_detector (d : Detector.t) =
  let inv = Probe.Span.intern "detector.invoke"
  and com = Probe.Span.intern "detector.commit"
  and ab = Probe.Span.intern "detector.abort" in
  {
    d with
    Detector.on_invoke = (fun i exec -> Probe.Span.with_ inv (fun () -> d.Detector.on_invoke i exec));
    on_commit = (fun tx -> Probe.Span.with_ com (fun () -> d.Detector.on_commit tx));
    on_abort = (fun tx -> Probe.Span.with_ ab (fun () -> d.Detector.on_abort tx));
  }

(* One solve to completion; raises [Failure] when the MST is wrong.  With
   [traced], the operator and both detectors (union-find and the component
   map) run inside spans. *)
let solve ?(traced = false) ~domains ~seed ~expected_weight (i : inst) =
  let det, t =
    if traced then
      (traced_detector i.det, { i.t with Boruvka.aux = traced_detector i.t.Boruvka.aux })
    else (i.det, i.t)
  in
  let operator =
    if traced then begin
      let op = Probe.Span.intern "executor.operator" in
      fun _ txn item ->
        Probe.Span.set_request item;
        Probe.Span.with_ op (fun () -> Boruvka.operator t det txn item)
    end
    else fun _ txn item -> Boruvka.operator t det txn item
  in
  let obs = Obs.create ~enabled:true "perfbench-executor" in
  let cpu0 = Probe.cpu_s ~domains and w0 = Gc.minor_words () and t0 = Probe.now_ns () in
  let stats =
    Executor.run_domains ~domains ~backoff_seed:seed ~obs
      ~detector:(Boruvka.full_detector t det) ~operator
      (List.init i.mesh.Mesh.nodes Fun.id)
  in
  let wall_s = Probe.secs_of_ns (Probe.now_ns () - t0) in
  let cpu_s = Probe.cpu_s ~domains -. cpu0 and words = Gc.minor_words () -. w0 in
  let n = i.mesh.Mesh.nodes in
  let mst = t.Boruvka.mst in
  if List.length mst <> n - 1 then
    failwith (Printf.sprintf "MST has %d edges, want %d" (List.length mst) (n - 1));
  if Boruvka.mst_weight mst <> expected_weight then
    failwith
      (Printf.sprintf "MST weight %d, reference %d" (Boruvka.mst_weight mst) expected_weight);
  if stats.Executor.committed <> (2 * n) - 1 then
    failwith (Printf.sprintf "%d commits, want %d" stats.Executor.committed ((2 * n) - 1));
  {
    wall_s;
    cpu_s;
    words;
    stats;
    retries = Obs.counter_value (Obs.snapshot obs) "retries";
    snap_uf = i.det.Detector.snapshot ();
    snap_alock = i.t.Boruvka.aux.Detector.snapshot ();
    cal = 1.0;
  }

let reference_weight () =
  let mesh = Mesh.generate ~seed:mesh_seed ~rows ~cols () in
  Reference.mst_weight ~n:mesh.Mesh.nodes mesh.Mesh.edges

type run = {
  rss_mb : float;  (** peak RSS after the warm-up solves *)
  setups : float list;
  one : solve list;  (** 1-domain solves *)
  two : solve list;  (** 2-domain solves *)
}

(* Rounds of two 1-domain solves and one 2-domain solve (a 2-domain solve
   takes about five times as long), each on a fresh set-up between two
   reference runs on as many domains, until [seconds] have passed.  The
   references run while no instance is live, so their collections do not
   trace the app's heap.  One untimed solve at each domain count comes
   first; the peak RSS is read right after them, before any reference, so
   it is the program's own. *)
let measure ~seed ~seconds =
  let expected_weight = reference_weight () in
  List.iter (fun d -> ignore (solve ~domains:d ~seed ~expected_weight (fst (setup ())))) [ 1; 2 ];
  let rss_mb = Probe.peak_rss_mb (Unix.getpid ()) in
  let stop = Probe.now_ns () + (seconds * 1_000_000_000) in
  let fresh domains =
    let r0 = Probe.reference ~domains in
    let i, s = setup () in
    let sv = solve ~domains ~seed ~expected_weight i in
    let r1 = Probe.reference ~domains in
    ({ sv with cal = Probe.cal r0 r1 }, s)
  in
  let rec go acc =
    if acc.one <> [] && Probe.now_ns () >= stop then acc
    else begin
      let a, sa = fresh 1 in
      let b, sb = fresh 1 in
      let c, sc = fresh 2 in
      go { acc with setups = sa :: sb :: sc :: acc.setups; one = a :: b :: acc.one; two = c :: acc.two }
    end
  in
  go { rss_mb; setups = []; one = []; two = [] }
