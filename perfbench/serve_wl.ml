(* The serve-read and serve-write workloads: a `commlat serve --domains 1`
   child driven over one Unix-socket connection by a single-threaded,
   select-driven open-loop generator, plus an in-process replay of the
   identical request stream for the traced run.

   With one connection and one worker domain the server executes requests
   in arrival order (a conflict flushes the epoch and retries the same
   job), so every reply is predicted by a sequential kvmap model. *)

open Commlat_core
open Commlat_server
module Obs = Commlat_obs.Obs

let keys = 100_000
let theta = 0.99

(* Offered load, req/s.  On a 2-vCPU VM, 30k req/s saturated the 1-domain
   server under serve-write whenever host steal reached 22-28% (closed-loop
   capacity fell to 27k req/s) and p50 went from 0.7 ms to 2-5 ms; at 10k
   req/s the server stays well below capacity and p50 still tracks the
   service of a burst. *)
let rate = 10_000.0
let burst = 32
let warmup_s = 1.0
let closed_loop_s = 1.0
let closed_window = 64
let prefill_window = 1024
let setup_reps = 3

(* The measured phase runs in segments of about [segment_s] seconds; after
   each one the generator drains the replies and times the reference
   (Probe.reference), so the references are spread over the whole run. *)
let segment_s = 2

let segments ~seconds =
  let n = max 1 (seconds / segment_s) in
  (n, int_of_float (rate *. float_of_int seconds) / n)

(* ------------------------------------------------------------------ *)
(* Request streams and the sequential model                            *)
(* ------------------------------------------------------------------ *)

type stream = { cfg : Load.config; cdf : float array; st : Random.State.t }

let stream ~mix ~seed cdf =
  {
    cfg = { Load.default_config with mix; keys; theta; seed };
    cdf;
    st = Random.State.make [| seed; 0x5e7e |];
  }

let next_req s ~id = Load.request_of s.cfg s.cdf s.st ~op:id

(* Prefill values come from their own seeded generator. *)
let prefill_reqs ~seed =
  let st = Random.State.make [| seed; 0xf111 |] in
  Array.init keys (fun k ->
      Wire.Invoke
        {
          id = k;
          adt = "kvmap";
          meth = "put";
          args = [| Value.Int k; Value.Int (Random.State.bits st) |];
        })

(* Replies are encoded as ints: -1 is [Opt None], v >= 0 is [Opt (Some v)]
   (every stored value is non-negative). *)
let none = -1

let model_apply (m : (int, int) Hashtbl.t) (r : Wire.req) =
  let old k = Option.value (Hashtbl.find_opt m k) ~default:none in
  match r with
  | Wire.Invoke { meth = "get"; args = [| Value.Int k |]; _ } -> old k
  | Wire.Invoke { meth = "put"; args = [| Value.Int k; Value.Int v |]; _ } ->
      let o = old k in
      Hashtbl.replace m k v;
      o
  | Wire.Invoke { meth = "remove"; args = [| Value.Int k |]; _ } ->
      let o = old k in
      Hashtbl.remove m k;
      o
  | _ -> invalid_arg "model_apply: not a kvmap request"

let reply_code (r : Wire.resp) =
  match r with
  | Wire.Reply (_, Value.Opt None) -> Some none
  | Wire.Reply (_, Value.Opt (Some (Value.Int v))) -> Some v
  | _ -> None

let meth_of (r : Wire.req) =
  match r with Wire.Invoke { meth; _ } -> meth | _ -> "other"

(* ------------------------------------------------------------------ *)
(* The connection                                                      *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rlen : int;
  mutable reads : int;
  mutable frames : int;
}

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

let add_frame b payload =
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_string b payload

let send c b =
  let s = Buffer.to_bytes b in
  Wire.really_write c.fd s 0 (Bytes.length s);
  Buffer.clear b

(* One read(2), then hand every complete response frame to [on_frame]. *)
let read_some c on_frame =
  if c.rlen = Bytes.length c.rbuf then fail "response frame larger than buffer";
  let n =
    try Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      fail "server stopped answering"
  in
  if n = 0 then fail "server closed the connection";
  let t = Probe.now_ns () in
  c.reads <- c.reads + 1;
  c.rlen <- c.rlen + n;
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    if c.rlen - !pos < 4 then continue := false
    else begin
      let len = Int32.to_int (Bytes.get_int32_be c.rbuf !pos) in
      if c.rlen - !pos - 4 < len then continue := false
      else begin
        let payload = Bytes.sub_string c.rbuf (!pos + 4) len in
        pos := !pos + 4 + len;
        c.frames <- c.frames + 1;
        on_frame (Wire.decode_resp payload) t
      end
    end
  done;
  Bytes.blit c.rbuf !pos c.rbuf 0 (c.rlen - !pos);
  c.rlen <- c.rlen - !pos

let readable c timeout_s =
  match Unix.select [ c.fd ] [] [] (Float.max 0.0 timeout_s) with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Per-phase outcome counters shared by every phase of one run. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_bad : string }

let check tally ~expected (resp : Wire.resp) =
  tally.attempted <- tally.attempted + 1;
  match reply_code resp with
  | Some v when v = expected -> ()
  | _ ->
      tally.failed <- tally.failed + 1;
      if tally.first_bad = "" then
        tally.first_bad <-
          (match resp with
          | Wire.Err (id, m) -> Printf.sprintf "request %d: error %s" id m
          | Wire.Reply (id, v) ->
              Printf.sprintf "request %d: got %s, model says %d" id
                (Value.to_string v) expected)

(* Closed loop: keep [window] requests in flight until [reqs] runs dry or
   [stop_ns] passes.  Returns the number of requests completed. *)
let closed_loop c tally model ~window ~stop_ns (reqs : unit -> Wire.req option) =
  let b = Buffer.create 8192 in
  let q = Queue.create () in
  let done_ = ref 0 and dry = ref false in
  let top_up () =
    while (not !dry) && Queue.length q < window && Probe.now_ns () < stop_ns do
      match reqs () with
      | None -> dry := true
      | Some r ->
          Queue.push (Wire.req_id r, model_apply model r) q;
          add_frame b (Wire.encode_req r)
    done;
    if Buffer.length b > 0 then send c b
  in
  top_up ();
  while not (Queue.is_empty q) do
    if readable c 30.0 then
      read_some c (fun resp _ ->
          let id, exp = Queue.pop q in
          if Wire.resp_id resp <> id then
            fail "reply %d arrived out of order (expected %d)" (Wire.resp_id resp) id;
          check tally ~expected:exp resp;
          incr done_)
    else fail "no reply within 30 s";
    top_up ()
  done;
  !done_

type open_result = {
  lat_ms : float array;
  n_done : int;
  span_s : float;  (** first scheduled send to last reply *)
  lag_max_ms : float;
  cpu_s : float;  (** server CPU over the phase *)
}

(* Open loop: [n] requests scheduled in bursts of [burst] at [rate],
   latency taken from each request's scheduled send. *)
let open_loop c tally model ~pid ~n ~id0 (s : stream) =
  let b = Buffer.create 4096 in
  let expected = Array.make n 0 in
  let lat = Array.make n nan in
  let period_ns = float_of_int burst /. rate *. 1e9 in
  let cpu0 = Probe.proc_cpu_s pid in
  let t0 = Probe.now_ns () + 1_000_000 in
  let sched i = t0 + int_of_float (float_of_int (i / burst) *. period_ns) in
  let deadline = sched n + 60_000_000_000 in
  let sent = ref 0 and recvd = ref 0 and lag_max = ref 0 and last = ref t0 in
  while !recvd < n do
    let now = Probe.now_ns () in
    if now > deadline then fail "open-loop phase overran by 60 s";
    if !sent < n && now >= sched !sent then begin
      lag_max := max !lag_max (now - sched !sent);
      while !sent < n && sched !sent <= now do
        let r = next_req s ~id:(id0 + !sent) in
        expected.(!sent) <- model_apply model r;
        add_frame b (Wire.encode_req r);
        incr sent
      done;
      send c b
    end;
    let timeout =
      if !sent < n then Probe.secs_of_ns (sched !sent - Probe.now_ns ()) else 1.0
    in
    if readable c timeout then
      read_some c (fun resp t ->
          let i = Wire.resp_id resp - id0 in
          if i < 0 || i >= !sent || not (Float.is_nan lat.(i)) then
            fail "unexpected reply id %d" (Wire.resp_id resp);
          lat.(i) <- float_of_int (t - sched i) *. 1e-6;
          check tally ~expected:expected.(i) resp;
          last := t;
          incr recvd)
  done;
  {
    lat_ms = lat;
    n_done = !recvd;
    span_s = Probe.secs_of_ns (!last - t0);
    lag_max_ms = float_of_int !lag_max *. 1e-6;
    cpu_s = Probe.proc_cpu_s pid -. cpu0;
  }

(* ------------------------------------------------------------------ *)
(* The server child                                                    *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; path : string; c : conn }

let work_dir = ".perfbench"

(* Server children not yet reaped, killed by [kill_live] when the
   benchmark itself is told to stop. *)
let live : int list ref = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      try ignore (Unix.waitpid [] pid) with _ -> ())
    !live;
  live := []

let spawn ~exe ~tag =
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/serve-%d-%s.sock" work_dir (Unix.getpid ()) tag in
  (try Unix.unlink path with _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; path; "--domains"; "1"; "--quiet" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  (* readiness: retry connect every 0.5 ms *)
  let deadline = Probe.now_ns () + 20_000_000_000 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> fail "server exited before listening");
        if Probe.now_ns () > deadline then fail "server not listening after 20 s";
        Unix.sleepf 0.0005;
        connect ()
  in
  let fd = connect () in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  { pid; path; c = { fd; rbuf = Bytes.create (1 lsl 20); rlen = 0; reads = 0; frames = 0 } }

let reaped pid = live := List.filter (( <> ) pid) !live

let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with _ -> ());
  (try ignore (Unix.waitpid [] srv.pid) with _ -> ());
  reaped srv.pid;
  (try Unix.close srv.c.fd with _ -> ());
  try Unix.unlink srv.path with _ -> ()

(* Quit over the wire, reap the child, insist on exit status 0. *)
let quit srv =
  let b = Buffer.create 16 in
  add_frame b (Wire.encode_req (Wire.Quit (-1)));
  send srv.c b;
  let got = ref false in
  while not !got do
    if readable srv.c 30.0 then read_some srv.c (fun r _ -> if Wire.resp_id r = -1 then got := true)
    else fail "no reply to Quit"
  done;
  Unix.close srv.c.fd;
  let status = snd (Unix.waitpid [] srv.pid) in
  reaped srv.pid;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "server exited with status %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "server killed by signal %d" n);
  try Unix.unlink srv.path with _ -> ()

(* Set-up: spawn through readiness, then prefill every key over the wire. *)
let setup ~exe ~seed ~tag tally =
  let t0 = Probe.now_ns () in
  let srv = spawn ~exe ~tag in
  try
    let model = Hashtbl.create keys in
    let pre = prefill_reqs ~seed in
    let i = ref 0 in
    let n =
      closed_loop srv.c tally model ~window:prefill_window ~stop_ns:max_int (fun () ->
          if !i >= keys then None
          else begin
            incr i;
            Some pre.(!i - 1)
          end)
    in
    if n <> keys then fail "prefill completed %d of %d puts" n keys;
    (srv, model, Probe.secs_of_ns (Probe.now_ns () - t0))
  with e ->
    kill srv;
    raise e

(* ------------------------------------------------------------------ *)
(* The socket run                                                      *)
(* ------------------------------------------------------------------ *)

type segment = { res : open_result; cal : float }

type socket_run = {
  setup_s : float;
  measured : open_result;  (** every segment together *)
  segs : segment list;
  rss_mb : float;
  frames_per_read : float;
  max_rps : float;
  steal : float;
  tally : tally;
}

let socket_run ~exe ~mix ~seed ~seconds ~reps ~saturate cdf =
  let tally = { attempted = 0; failed = 0; first_bad = "" } in
  (* earlier set-ups only time themselves; the last one serves the run *)
  let setups =
    List.init (reps - 1) (fun r ->
        let srv, _, s = setup ~exe ~seed ~tag:(string_of_int r) tally in
        quit srv;
        s)
  in
  let srv, model, s_last = setup ~exe ~seed ~tag:"run" tally in
  Printf.printf "set-ups (s): %s\n%!" (String.concat " " (List.map (Printf.sprintf "%.3f") (setups @ [ s_last ])));
  try
    let st = stream ~mix ~seed cdf in
    let n_warm = int_of_float (rate *. warmup_s) in
    let n_seg, n_per = segments ~seconds in
    let n_meas = n_seg * n_per in
    let _warm = open_loop srv.c tally model ~pid:srv.pid ~n:n_warm ~id0:keys st in
    let host0 = Probe.host_cpu () in
    let r0 = srv.c.reads and f0 = srv.c.frames in
    let ref0 = ref (Probe.reference ~domains:1) in
    let segs =
      List.init n_seg (fun k ->
          let id0 = keys + n_warm + (k * n_per) in
          let res = open_loop srv.c tally model ~pid:srv.pid ~n:n_per ~id0 st in
          let ref1 = Probe.reference ~domains:1 in
          let cal = Probe.cal !ref0 ref1 in
          ref0 := ref1;
          { res; cal })
    in
    let all f = List.map (fun g -> f g.res) segs in
    let measured =
      {
        lat_ms = Array.concat (all (fun r -> r.lat_ms));
        n_done = List.fold_left ( + ) 0 (all (fun r -> r.n_done));
        span_s = List.fold_left ( +. ) 0.0 (all (fun r -> r.span_s));
        lag_max_ms = List.fold_left Float.max 0.0 (all (fun r -> r.lag_max_ms));
        cpu_s = List.fold_left ( +. ) 0.0 (all (fun r -> r.cpu_s));
      }
    in
    let steal = Probe.steal_share host0 in
    let frames_per_read =
      float_of_int (srv.c.frames - f0) /. float_of_int (max 1 (srv.c.reads - r0))
    in
    (* closed-loop saturation: a per-layer diagnostic, so traced runs only *)
    let max_rps =
      if not saturate then 0.0
      else begin
        let id = ref (keys + n_warm + n_meas) in
        let t_cl = Probe.now_ns () in
        let n_cl =
          closed_loop srv.c tally model ~window:closed_window
            ~stop_ns:(t_cl + int_of_float (closed_loop_s *. 1e9))
            (fun () ->
              incr id;
              Some (next_req st ~id:(!id - 1)))
        in
        float_of_int n_cl /. Probe.secs_of_ns (Probe.now_ns () - t_cl)
      end
    in
    let rss_mb = Probe.peak_rss_mb srv.pid in
    quit srv;
    {
      setup_s = Probe.median (s_last :: setups);
      measured;
      segs;
      rss_mb;
      frames_per_read;
      max_rps;
      steal;
      tally;
    }
  with e ->
    kill srv;
    raise e

(* ------------------------------------------------------------------ *)
(* The in-process replay (traced run)                                  *)
(* ------------------------------------------------------------------ *)

let epoch = 32

type replay_stats = {
  cpu_traced_s : float;  (** CPU of the traced epochs *)
  cpu_plain_s : float;  (** CPU of the untraced epochs *)
  n_traced : int;  (** requests in traced epochs *)
  n_plain : int;
  req_bytes : int;  (** framed request bytes, measured stream *)
  resp_bytes : int;  (** framed response bytes, measured stream *)
  words : (string, float * int) Hashtbl.t;
      (** per method: minor words and try_req calls, traced epochs *)
  engine0 : Obs.snapshot;  (** engine counters before the measured stream *)
  kvmap0 : Obs.snapshot;  (** kvmap detector counters, likewise *)
}

(* Replay the prefill, warm-up and measured streams through
   [Wire.decode_req] -> [Engine.route_hash] -> [Engine.try_req] ->
   [Wire.encode_resp], committing every [epoch] requests and on a
   conflict, as the server's worker does.  In the measured stream every
   other epoch is traced: each call is a span and minor words are counted
   per method.  Traced and untraced epochs share the machine's conditions,
   so their CPU per request differs by the tracing overhead alone. *)
let replay ~mix ~seed ~seconds cdf tally eng =
  let on = ref false in
  let sp name =
    let id = Probe.Span.intern name in
    fun f -> if !on then Probe.Span.with_ id f else f ()
  in
  let sp_decode = sp "wire.decode_req" and sp_encode = sp "wire.encode_resp" in
  let sp_route = sp "engine.route_hash" and sp_commit = sp "engine.commit" in
  let sp_try =
    List.map (fun m -> (m, sp ("engine.try_req." ^ m))) [ "get"; "put"; "remove" ]
  in
  let words = Hashtbl.create 4 in
  let model = Hashtbl.create keys in
  let open_ = ref [] in
  let flush () =
    List.iter (fun p -> sp_commit (fun () -> Engine.commit eng p)) (List.rev !open_);
    open_ := []
  in
  let count = ref 0 and req_bytes = ref 0 and resp_bytes = ref 0 in
  let one (r : Wire.req) =
    let expected = model_apply model r in
    let payload = Wire.encode_req r in
    req_bytes := !req_bytes + 4 + String.length payload;
    Probe.Span.set_request (Wire.req_id r);
    let req = sp_decode (fun () -> Wire.decode_req payload) in
    ignore (sp_route (fun () -> Engine.route_hash eng req));
    let m = meth_of req in
    let sp_m = List.assoc m sp_try in
    let rec attempt () =
      let w0 = if !on then Gc.minor_words () else 0.0 in
      let o = sp_m (fun () -> Engine.try_req eng req) in
      if !on then begin
        let w, k = Option.value (Hashtbl.find_opt words m) ~default:(0.0, 0) in
        Hashtbl.replace words m (w +. Gc.minor_words () -. w0, k + 1)
      end;
      match o with
      | Engine.Done (p, resp) ->
          Option.iter (fun p -> open_ := p :: !open_) p;
          let out = sp_encode (fun () -> Wire.encode_resp resp) in
          resp_bytes := !resp_bytes + 4 + String.length out;
          check tally ~expected resp
      | Engine.Conflicted _ ->
          flush ();
          attempt ()
    in
    attempt ();
    incr count;
    if !count mod epoch = 0 then flush ()
  in
  Array.iter one (prefill_reqs ~seed);
  let st = stream ~mix ~seed cdf in
  let n_warm = int_of_float (rate *. warmup_s) in
  for i = 0 to n_warm - 1 do
    one (next_req st ~id:(keys + i))
  done;
  flush ();
  count := 0;
  req_bytes := 0;
  resp_bytes := 0;
  let engine0 = Obs.snapshot eng.Engine.obs in
  let kvmap0 = (Engine.find_exposed eng "kvmap").Engine.det.Detector.snapshot () in
  let cpu = [| 0.0; 0.0 |] and reqs = [| 0; 0 |] in
  let n_seg, n_per = segments ~seconds in
  let n_meas = n_seg * n_per in
  let i = ref 0 in
  while !i < n_meas do
    (* one epoch: [epoch] requests and their group commit *)
    let traced = !i / epoch mod 2 = 1 in
    on := traced;
    let k = Bool.to_int traced in
    let n = min epoch (n_meas - !i) in
    let c0 = Probe.thread_cpu_s () in
    for j = !i to !i + n - 1 do
      one (next_req st ~id:(keys + n_warm + j))
    done;
    flush ();
    cpu.(k) <- cpu.(k) +. (Probe.thread_cpu_s () -. c0);
    reqs.(k) <- reqs.(k) + n;
    i := !i + n
  done;
  on := false;
  {
    cpu_traced_s = cpu.(1);
    cpu_plain_s = cpu.(0);
    n_traced = reqs.(1);
    n_plain = reqs.(0);
    req_bytes = !req_bytes;
    resp_bytes = !resp_bytes;
    words;
    engine0;
    kvmap0;
  }

(* Read-side probes, after the replay: with one epoch of the stream left
   open, time [Guard.protect_all] over the kvmap detector's guards and one
   [Gatekeeper.batch_check] of a get against the open transactions. *)
let read_probes ~mix ~seed cdf eng =
  let ex = Engine.find_exposed eng "kvmap" in
  let st = stream ~mix ~seed:(seed + 1) cdf in
  let guards = ex.Engine.det.Detector.guards in
  let prot = ref 0 and chk = ref 0 and n = ref 0 in
  for e = 0 to 199 do
    let open_ = ref [] in
    for i = 0 to epoch - 2 do
      match Engine.try_req eng (next_req st ~id:((e * epoch) + i)) with
      | Engine.Done (Some p, _) -> open_ := p :: !open_
      | Engine.Done (None, _) -> ()
      | Engine.Conflicted _ ->
          List.iter (Engine.commit eng) (List.rev !open_);
          open_ := []
    done;
    for _ = 1 to 16 do
      let k = Load.zipf_sample cdf st.st in
      let inv = Invocation.make
          ~txn:(Commlat_runtime.Txn.id (Commlat_runtime.Txn.fresh ()))
          Commlat_adts.Kvmap.m_get [| Value.Int k |] in
      let t0 = Probe.now_ns () in
      Guard.protect_all guards ignore;
      let t1 = Probe.now_ns () in
      Guard.protect_all guards (fun () ->
          inv.Invocation.ret <- ex.Engine.exec_inv inv;
          let t2 = Probe.now_ns () in
          (try Gatekeeper.batch_check ex.Engine.gk inv with Detector.Conflict _ -> ());
          chk := !chk + (Probe.now_ns () - t2));
      prot := !prot + (t1 - t0);
      incr n
    done;
    List.iter (Engine.commit eng) (List.rev !open_)
  done;
  ( List.length (List.sort_uniq compare (List.map Guard.id guards)),
    float_of_int !prot /. float_of_int !n,
    float_of_int !chk /. float_of_int !n )
