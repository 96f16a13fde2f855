(* Clocks, /proc readers, order statistics and the in-memory span tracer
   shared by every workload. *)

(* Monotonic nanoseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns *. 1e-9

(* CPU seconds (user + system, every thread) of this process. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* /proc files report a length of 0, so read them line by line. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* CPU seconds of the calling thread, to the nanosecond, from
   /proc/thread-self/schedstat (time on CPU, steal excluded). *)
let thread_cpu_s () =
  match read_lines "/proc/thread-self/schedstat" with
  | l :: _ -> Scanf.sscanf l "%d" (fun ns -> secs_of_ns ns)
  | [] -> failwith "empty /proc/thread-self/schedstat"

(* One-domain runs execute on the calling thread: time them to the
   nanosecond.  Otherwise sum every thread at clock-tick resolution. *)
let cpu_s ~domains = if domains = 1 then thread_cpu_s () else self_cpu_s ()

let clk_tck = 100.0

(* utime + stime of process [pid] in seconds, from /proc/<pid>/stat.  The
   command name may hold spaces, so fields are counted after its ')'. *)
let proc_cpu_s pid =
  let s = String.concat " " (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  let i = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s i (String.length s - i))) in
  (* fields 14 and 15 of stat(5); [rest] starts at field 3 *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

(* Peak resident set (VmHWM) of [pid], in MiB. *)
let peak_rss_mb pid =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines (Printf.sprintf "/proc/%d/status" pid))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Aggregate (steal, total) jiffies from the first line of /proc/stat. *)
let host_cpu () =
  match read_lines "/proc/stat" with
  | l :: _ ->
      let f =
        String.split_on_char ' ' l
        |> List.filter (fun s -> s <> "" && s <> "cpu")
        |> List.map float_of_string
      in
      let total = List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < 8) f) in
      (List.nth f 7, total)
  | [] -> (0.0, 1.0)

(* Share of host CPU time stolen by the hypervisor since the [host_cpu]
   reading [(s0, t0)]. *)
let steal_share (s0, t0) =
  let s1, t1 = host_cpu () in
  if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.0

(* Exact quantile (nearest rank on the sorted samples). *)
let quantile (a : float array) q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    b.(min (n - 1) (int_of_float (q *. float_of_int n)))
  end

(* Median of a list, averaging the middle pair. *)
let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

(* On a shared host the speed of allocation-heavy code moves by a third
   from one minute to the next, and by up to 1.8x between two solves a
   second apart.  So each timed job sits between two runs of a reference:
   a fixed computation that uses no repository code, on as many domains as
   the job uses.  It builds a 50k-key map (pointer chasing, promotion to
   the major heap) and a stream of short-lived lists (minor-heap
   allocation), the two costs that dominate the workloads.  Over three
   minutes of interleaved runs its time correlated 0.89 with the Boruvka
   solve's and 0.82 with the exploration's.  A calibrated time is the
   job's time scaled to the host speed at which the reference takes
   [ref_nominal_s]. *)
module Int_map = Map.Make (Int)

let ref_nominal_s = 0.065

let ref_body () =
  let st = Random.State.make [| 0x5eed |] in
  let m = ref Int_map.empty in
  for i = 1 to 50_000 do
    m := Int_map.add (Random.State.bits st) [ i ] !m
  done;
  let n = ref 0 in
  for _ = 1 to 3_000 do
    n := !n + List.length (List.init 1000 (fun i -> (i, i)))
  done;
  ignore (Sys.opaque_identity (!m, !n))

(* Wall seconds of one reference run on [domains] domains at once, on a
   fully collected heap.  It runs on the job's own thread: there it tracked
   the job far better (correlation 0.82 over three minutes) than the same
   reference run in a helper process (0.35). *)
let reference ~domains =
  Gc.full_major ();
  let t0 = now_ns () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn ref_body) in
  ref_body ();
  List.iter Domain.join others;
  secs_of_ns (now_ns () - t0)

(* Factor that scales a time measured between references [a] and [b] to
   the nominal host speed. *)
let cal a b = ref_nominal_s /. ((a +. b) /. 2.0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span is a named interval on one domain, caused by the span open
   around it.  Self time (duration minus the time covered by child spans)
   is accumulated per name as spans close; the first [log_cap] spans are
   kept whole in memory and written out by [write_log] at exit. *)
module Span = struct
  type frame = { f_name : int; f_id : int; f_start : int; mutable f_child : int }

  type agg = { mutable self_ns : int; mutable total_ns : int; mutable count : int }

  type tracer = {
    mutable stack : frame list;
    aggs : (int, agg) Hashtbl.t;
    mutable log : (int * int * int * int * int * int) list;
        (* id, parent, name, start, end, request *)
    mutable logged : int;
    mutable next_id : int;
    dom : int;
  }

  let log_cap = 50_000
  let names : (string, int) Hashtbl.t = Hashtbl.create 32
  let name_of : (int, string) Hashtbl.t = Hashtbl.create 32
  let names_mu = Mutex.create ()

  (* Name ids are interned once, before the traced pass. *)
  let intern s =
    Mutex.protect names_mu (fun () ->
        match Hashtbl.find_opt names s with
        | Some i -> i
        | None ->
            let i = Hashtbl.length names in
            Hashtbl.replace names s i;
            Hashtbl.replace name_of i s;
            i)

  let all : tracer list ref = ref []
  let all_mu = Mutex.create ()

  let key =
    Domain.DLS.new_key (fun () ->
        let t =
          {
            stack = [];
            aggs = Hashtbl.create 16;
            log = [];
            logged = 0;
            next_id = 0;
            dom = (Domain.self () :> int);
          }
        in
        Mutex.protect all_mu (fun () -> all := t :: !all);
        t)

  (* The request (or item) the next spans belong to. *)
  let current_req = Domain.DLS.new_key (fun () -> ref 0)

  let set_request r = (Domain.DLS.get current_req) := r

  let with_ name f =
    let tr = Domain.DLS.get key in
    tr.next_id <- tr.next_id + 1;
    let fr = { f_name = name; f_id = tr.next_id; f_start = now_ns (); f_child = 0 } in
    let parent = tr.stack in
    tr.stack <- fr :: parent;
    let close () =
      let stop = now_ns () in
      let dur = stop - fr.f_start in
      tr.stack <- parent;
      let pid =
        match parent with
        | p :: _ ->
            p.f_child <- p.f_child + dur;
            p.f_id
        | [] -> 0
      in
      let a =
        match Hashtbl.find_opt tr.aggs name with
        | Some a -> a
        | None ->
            let a = { self_ns = 0; total_ns = 0; count = 0 } in
            Hashtbl.replace tr.aggs name a;
            a
      in
      a.self_ns <- a.self_ns + (dur - fr.f_child);
      a.total_ns <- a.total_ns + dur;
      a.count <- a.count + 1;
      if tr.logged < log_cap then begin
        tr.logged <- tr.logged + 1;
        tr.log <-
          (fr.f_id, pid, name, fr.f_start, stop, !(Domain.DLS.get current_req))
          :: tr.log
      end
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e

  (* Merged per-name aggregates over every domain's tracer. *)
  let agg name =
    let id = intern name in
    List.fold_left
      (fun (s, t, c) tr ->
        match Hashtbl.find_opt tr.aggs id with
        | Some a -> (s + a.self_ns, t + a.total_ns, c + a.count)
        | None -> (s, t, c))
      (0, 0, 0) !all

  let self_ns name =
    let s, _, _ = agg name in
    s

  (* Mean self time of one [name] span, ns; 0 when none was recorded. *)
  let mean_self_ns name =
    let s, _, c = agg name in
    if c = 0 then 0.0 else float_of_int s /. float_of_int c

  let mean_total_ns name =
    let _, t, c = agg name in
    if c = 0 then 0.0 else float_of_int t /. float_of_int c

  (* Reset the per-name aggregates between passes; the span log is kept. *)
  let clear () = List.iter (fun tr -> Hashtbl.reset tr.aggs) !all

  (* Write the kept spans as tab-separated rows:
     domain, id, parent, name, start_ns, end_ns, request. *)
  let write_log path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "domain\tid\tparent\tname\tstart_ns\tend_ns\trequest\n";
        List.iter
          (fun tr ->
            List.iter
              (fun (id, pid, name, st, en, req) ->
                Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\n" tr.dom id pid
                  (Hashtbl.find name_of name) st en req)
              (List.rev tr.log))
          !all)
end
