(* The PathLog benchmark: three workloads driven end to end over the wire
   against [pathlog serve] child processes, plus in-process paths through
   the public [Pathlog] API. See README.md for the workloads, the metric
   map and how to run it. The last line of standard output is one JSON
   object: correct, attempted, failed, metrics. *)

module P = Pathlog
module Program = P.Program
module Live = P.Live
module Durable = P.Durable
module Client = P.Client
module Protocol = P.Protocol

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let exe = ref ""
let dir = ref ""
let faults = ref None

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve_read|serve_write");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--exe", Arg.Set_string exe, "the pathlog executable");
      ("--dir", Arg.Set_string dir, "scratch directory for this run");
      ("--faults", Arg.String (fun s -> faults := Some s), "serve --faults spec");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "plbench --workload W --seed N --seconds S --trace 0|1 --exe PATH --dir DIR"

(* ------------------------------------------------------------------ *)
(* Correctness bookkeeping and samples                                 *)

let wrong = ref 0
let attempted = ref 0
let failed = ref 0

let mismatch fmt =
  Printf.ksprintf
    (fun s ->
      incr wrong;
      if !wrong <= 8 then prerr_endline ("plbench: wrong: " ^ s))
    fmt

(* The timed requests of one kind, as (window, end time, latency in ms)
   triples in a float array. The GC does not scan float arrays, so a
   run's hundreds of thousands of samples add nothing to the major
   collections that the in-process phases between windows trigger. *)
type samples = { mutable n : int; mutable a : Float.Array.t }

let samples () = { n = 0; a = Float.Array.make (3 * 4096) 0. }

let record s ~win ~t ~ms =
  if 3 * (s.n + 1) > Float.Array.length s.a then begin
    let b = Float.Array.make (2 * Float.Array.length s.a) 0. in
    Float.Array.blit s.a 0 b 0 (3 * s.n);
    s.a <- b
  end;
  Float.Array.set s.a (3 * s.n) (float_of_int win);
  Float.Array.set s.a ((3 * s.n) + 1) t;
  Float.Array.set s.a ((3 * s.n) + 2) ms;
  s.n <- s.n + 1

let clear s =
  s.n <- 0;
  s.a <- Float.Array.make 3 0.

(* Every request kind, over the whole run; [mutations] holds both
   ASSERTs and RETRACTs. One thread sends every request, so each set is
   in send order. *)
let q_samples = samples ()
let why_samples = samples ()
let assert_samples = samples ()
let retract_samples = samples ()
let mutation_samples = samples ()

(* The batches one window sent, for its checks. *)
type acc = {
  mutable deltas_expected : string list;  (** "+ x" / "- x", newest first *)
  mutable batches : (bool * string) list;  (** acknowledged, newest first *)
}

let new_acc () = { deltas_expected = []; batches = [] }

let percentile p l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l = percentile 0.5 l

(* The host is shared: outside load slows a stretch of a run, never
   speeds one up, and the same program runs in every stretch. So each
   latency figure is the first quartile, over consecutive stretches of
   [k] requests, of that stretch's percentile; and each rate the third
   quartile over stretches (within one window) of [k] / their span. A
   change that slows the program slows every stretch, the quiet ones
   too. [stretches] gives each stretch as its first and one-past-last
   sample; the last stretch of a window takes the remainder. *)
let stretches ~by_window k s =
  let win i = Float.Array.get s.a (3 * i) in
  let rec windows i acc =
    if i >= s.n then List.rev acc
    else
      let j = ref i in
      while !j < s.n && ((not by_window) || win !j = win i) do incr j done;
      windows !j ((i, !j) :: acc)
  in
  List.concat_map
    (fun (i, j) ->
      let n = j - i in
      if n <= k then [ (i, j) ]
      else
        List.init (n / k) (fun g ->
            (i + (g * k), if g = (n / k) - 1 then j else i + ((g + 1) * k))))
    (windows 0 [])

let latency ~k p s =
  percentile 0.25
    (List.map
       (fun (i, j) ->
         percentile p (List.init (j - i) (fun x -> Float.Array.get s.a ((3 * (i + x)) + 2))))
       (stretches ~by_window:false k s))

let rate ~k s =
  percentile 0.75
    (List.filter_map
       (fun (i, j) ->
         if j - i < 2 then None
         else
           let t x = Float.Array.get s.a ((3 * x) + 1) in
           Some (float_of_int (j - i - 1) /. (t (j - 1) -. t i)))
       (stretches ~by_window:true k s))

(* ------------------------------------------------------------------ *)
(* Checking replies                                                    *)

let payload = function
  | Ok (Protocol.Ok lines) -> Some lines
  | _ -> None

let reply_to_string = function
  | Ok r -> String.trim (Protocol.render_reply r)
  | Error `Eof -> "EOF"
  | Error (`Malformed s) -> "malformed: " ^ s

let check_query text expect reply =
  match (payload reply, expect) with
  | Some [ l ], Gen.Ground b when l = if b then "yes" else "no" -> ()
  | Some (_ :: rows), Gen.Rows exp when Gen.sorted rows = exp -> ()
  | _ ->
    mismatch "QUERY %s -> %s" text
      (let s = reply_to_string reply in
       if String.length s > 200 then String.sub s 0 200 else s)

(* [`Ok] for a proof naming the fact, [`Known] for the closure-only
   members provenance cannot prove. *)
let check_why fact closure_only reply =
  match payload reply with
  | Some (first :: _) when String.starts_with ~prefix:fact first -> `Ok
  | Some [ "not in the model" ] when closure_only -> `Known
  | _ ->
    mismatch "WHY %s -> %s" fact (reply_to_string reply);
    `Ok

let check_mutation ~retract text reply =
  match payload reply with
  | Some [ _epoch; _strategy; added; removed ] ->
    let n s = Scanf.sscanf s "%_s %d" Fun.id in
    if (retract && n removed < 1) || ((not retract) && n added < 1) then
      mismatch "%s %s changed nothing (%s, %s)"
        (if retract then "RETRACT" else "ASSERT") text added removed
  | _ ->
    mismatch "%s %s -> %s" (if retract then "RETRACT" else "ASSERT") text
      (reply_to_string reply)

let current_window = ref 0

(* Whether the requests sent now count towards [attempted], [failed] and
   the samples; the model checks between windows do not. *)
let counting = ref true

(* One request, timed from send to the end of its reply, and recorded
   in each of [into]. *)
let timed c line into =
  let t0 = now () in
  let r = Client.request c line in
  let t = now () in
  ( r,
    fun () ->
      if !counting then
        List.iter (fun s -> record s ~win:!current_window ~t ~ms:((t -. t0) *. 1000.)) into )

let exec acc c (op : Gen.op) =
  if !counting then incr attempted;
  match op with
  | Query { text; expect; _ } ->
    let r, keep = timed c ("QUERY " ^ text) [ q_samples ] in
    check_query text expect r;
    keep ()
  | Why { fact; closure_only } -> (
    let r, keep = timed c ("WHY " ^ fact) [ why_samples ] in
    match check_why fact closure_only r with
    | `Ok -> keep ()
    | `Known -> if !counting then incr failed)
  | Assert { text; delta } ->
    let r, keep = timed c ("ASSERT " ^ text) [ assert_samples; mutation_samples ] in
    check_mutation ~retract:false text r;
    keep ();
    acc.batches <- (false, text) :: acc.batches;
    Option.iter (fun x -> acc.deltas_expected <- ("+ " ^ x) :: acc.deltas_expected) delta
  | Retract { text; delta } ->
    let r, keep = timed c ("RETRACT " ^ text) [ retract_samples; mutation_samples ] in
    check_mutation ~retract:true text r;
    keep ();
    acc.batches <- (true, text) :: acc.batches;
    Option.iter (fun x -> acc.deltas_expected <- ("- " ^ x) :: acc.deltas_expected) delta

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)

let run_dir = ref ""
let file name = Filename.concat !run_dir name

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let sizes_company = 800
let forest_trees = 8 and forest_size = 100

(* set-ups per run; setup_s is their median *)
let n_setups = 5

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()


(* ------------------------------------------------------------------ *)
(* In-process paths: materialise, demand                               *)

let render_col p rows =
  let u = Program.universe p in
  Gen.sorted
    (List.map (fun r -> String.concat "\t" (List.map (P.Universe.to_string u) r)) rows)

(* Parse and materialise [text]; returns tuples inserted per second and
   checks the set-valued closure size. *)
let materialise ~text ~set_tuples =
  Gc.compact ();
  let t0 = now () in
  let p = Program.of_string text in
  let st = Program.run p in
  let dt = now () -. t0 in
  let got = (P.Store.stats (Program.store p)).set_tuples in
  if got <> set_tuples then
    mismatch "materialised %d set-valued tuples, expected %d" got set_tuples;
  float_of_int st.P.Fixpoint.insertions /. dt

(* One demand-driven point query on a fresh unmaterialised copy (the
   parse is not timed). *)
let demand_point ~text (q, expect) =
  let p = Program.of_string text in
  let lits = Program.parse_query q in
  let t0 = now () in
  let ans, _ = Program.query_demand p lits in
  let ms = (now () -. t0) *. 1000. in
  if render_col p ans.Program.rows <> expect then mismatch "demand %s" q;
  ms

(* ------------------------------------------------------------------ *)
(* Result                                                              *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let print_result () =
  let body =
    List.rev_map
      (fun (n, v, u) ->
        if Float.is_nan v then
          failwith ("metric " ^ n ^ " was not measured");
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!wrong = 0) !attempted !failed (String.concat ", " body)

(* ------------------------------------------------------------------ *)
(* Shared phases                                                       *)

let log () = file "server.log"

(* Spawn a server and wait for its first answer to [probe]; returns the
   server, the spawn-to-answer time and the reply. *)
let start ?(sock = "s.sock") ?data ~program ~probe () =
  let s =
    Wire.spawn ~exe:!exe ~program ~sock:(file sock) ?data ?faults:!faults
      ~log:(log ()) ()
  in
  let t0 = now () in
  let c, r = Wire.await_ready s probe in
  let dt = now () -. t0 in
  Client.close c;
  (s, dt, r)

let check_probe (text, expect) (r : Protocol.reply) =
  check_query text expect (Ok r)

(* [n_setups] set-ups; the last server stays up. [gen] makes and writes
   the inputs and returns (program file, data dir option, probe). *)
let setup_serve gen =
  let setups = ref [] and restarts = ref [] and last = ref None in
  for i = 1 to n_setups do
    Gc.compact ();
    let t0 = now () in
    let program, data, probe = gen i in
    let s, dt, r = start ?data ~program ~probe:("QUERY " ^ fst probe) () in
    setups := (now () -. t0) :: !setups;
    restarts := dt :: !restarts;
    check_probe probe r;
    if i < n_setups then Wire.kill s else last := Some s
  done;
  (Option.get !last, median !setups, !restarts)

(* One closed loop on this thread, so that one request at a time is in
   flight: each step sends a writer round on the writer's connection, if
   there is a writer, then [reads] reader rounds on the reader's, if
   there is a reader. [stop steps] is asked before each step. Returns the
   batches sent, the steps run and, with [subscribe], the standing
   query's baseline and every DELTA the reader's connection received. *)
let window ~sock ~stop ?reader ?(reads = 1) ?writer ?(subscribe = false) () =
  Gc.compact ();
  incr current_window;
  let connect () = Client.connect (P.Server.Unix_path sock) in
  let acc = new_acc () in
  let wc = Option.map (fun round -> (round, connect ())) writer in
  let rc = Option.map (fun round -> (round, connect ())) reader in
  (* the standing query is registered before the first batch, so every
     batch lands after its baseline *)
  let baseline =
    match rc with
    | Some (_, c) when subscribe -> (
      match Client.subscribe c Gen.subscription with
      | Ok s -> s.Client.baseline
      | Error e -> failwith ("SUBSCRIBE: " ^ e))
    | _ -> []
  in
  let deltas = ref [] in
  let rec drain c =
    match Client.next_delta ~timeout_s:0. c with
    | Some d ->
      deltas := d :: !deltas;
      drain c
    | None -> ()
  in
  let steps = ref 0 in
  while not (stop !steps) do
    Option.iter (fun (round, c) -> List.iter (exec acc c) (round ())) wc;
    Option.iter
      (fun (round, c) ->
        for _ = 1 to reads do
          List.iter (exec acc c) (round ());
          if subscribe then drain c
        done)
      rc;
    incr steps
  done;
  let sub =
    match rc with
    | Some (_, c) when subscribe ->
      (* every DELTA was written before the writer's last reply; the PONG
         behind them queues them all *)
      ignore (Client.ping c);
      drain c;
      Some (baseline, List.rev !deltas)
    | _ -> None
  in
  Option.iter (fun (_, c) -> Client.close c) wc;
  Option.iter (fun (_, c) -> Client.close c) rc;
  (acc, !steps, sub)

(* The standing query's DELTA frames must be exactly the acknowledged
   batches that touched it, in commit order, and fold from the baseline
   to the benchmark's own closure of the final edge set. *)
let check_deltas ~baseline ~deltas ~expected ~final =
  let got =
    List.concat_map
      (fun (d : Protocol.delta) ->
        List.map (( ^ ) "+ ") d.appeared @ List.map (( ^ ) "- ") d.vanished)
      deltas
  in
  if got <> expected then
    mismatch "DELTA stream: %d rows received, %d expected" (List.length got)
      (List.length expected);
  let folded =
    List.fold_left
      (fun s (d : Protocol.delta) ->
        List.filter (fun x -> not (List.mem x d.vanished)) s @ d.appeared)
      baseline deltas
  in
  if Gen.sorted folded <> final then mismatch "DELTA fold differs from the model"

let stats_of sock =
  let c = Client.connect (P.Server.Unix_path sock) in
  let s = Wire.stats c in
  Client.close c;
  s

(* Server-side figures kept for the traced run's per-layer metrics. *)
let server_stats = ref []

(* What the traced run replays in-process: the serve program, the reader
   stream (rounds completed), the writer's rounds, the program
   materialised in-process and its demand points. *)
type plan = {
  serve_text : string;
  reader : Random.State.t -> unit -> Gen.op list;
  reader_rounds : int;
  reads_per_write : int;
      (** reader rounds after each writer round; 0: every reader round,
          then every writer round *)
  writer : Random.State.t -> (unit -> int) -> unit -> Gen.op list;
  writer_rounds : int;
  cold_text : string;
  cold_point : Random.State.t -> string * string list;
}

let plan : plan option ref = ref None

let edges_query = "X[to ->> {Y}]"

let edge_rows (g : Gen.graph) =
  Gen.sorted
    (List.concat
       (List.mapi
          (fun u vs -> List.map (fun v -> g.names.(u) ^ "\t" ^ g.names.(v)) vs)
          (Array.to_list g.succ)))

let counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

(* ------------------------------------------------------------------ *)
(* In-process phases shared by the serve workloads                     *)

let demand_points = 30
let cycles = 5

(* the serve workloads read the server's VmHWM after this many steps of
   their first window, so that it follows the model, not the run's speed *)
let peak_rounds = 100

(* reader rounds after each writer round on the forest workloads: reads
   are ~100 times cheaper than a writer round, and their p95 needs
   stretches of 200 queries *)
let forest_reads = 5

(* The in-process paths, a step per cycle: [repeats] full
   materialisations, then [demand_step] demand-driven point queries, each
   on a fresh unmaterialised copy. *)
let demand_step = 20

type cold = { rates : float list ref; demand : float list ref; st : Random.State.t }

let new_cold () = { rates = ref []; demand = ref []; st = Gen.rng !seed 500 }

let cold_step cs ~text ~set_tuples ~point ~repeats =
  for _ = 1 to repeats do
    cs.rates := materialise ~text ~set_tuples :: !(cs.rates)
  done;
  Gc.compact ();
  for _ = 1 to demand_step do
    cs.demand := demand_point ~text (point cs.st) :: !(cs.demand)
  done

let end_metrics ~setup_s ~restart_s ~peak (cs : cold) =
  let q = q_samples and muts = mutation_samples in
  (* a stretch of 200 leaves 10 requests beyond its p95 *)
  let p50 = latency ~k:200 0.5 and p95 = latency ~k:200 0.95 in
  metric "query_p50_ms" "ms" (p50 q);
  metric "query_p95_ms" "ms" (p95 q);
  metric "queries_per_s" "1/s" (rate ~k:200 q);
  metric "why_p50_ms" "ms" (p50 why_samples);
  metric "assert_p50_ms" "ms" (p50 assert_samples);
  metric "retract_p50_ms" "ms" (p50 retract_samples);
  metric "mutation_p95_ms" "ms" (p95 muts);
  metric "mutations_per_s" "1/s" (rate ~k:200 muts);
  metric "derived_tuples_per_s" "1/s" (median !(cs.rates));
  metric "demand_p50_ms" "ms" (median !(cs.demand));
  metric "restart_s" "s" restart_s;
  metric "peak_rss_mb" "MB" peak;
  metric "setup_s" "s" setup_s

(* ------------------------------------------------------------------ *)
(* serve_read                                                          *)

let company_input () = Gen.company ~seed:!seed ~n:sizes_company

let serve_read () =
  let co = ref None in
  let gen _ =
    let c = company_input () in
    let path = file "company.plg" in
    write_file path c.c_text;
    co := Some c;
    (path, None, (Gen.w c.perm.(0) ^ " : employee", Gen.Ground true))
  in
  let s, setup_s, restarts = setup_serve gen in
  let c = Option.get !co in
  let program = file "company.plg" in
  let rst = Gen.rng !seed 100 in
  let reader () = Gen.company_read_round c rst in
  let wst = Gen.rng !seed 200 and fresh = counter () in
  let cst = Gen.rng !seed 300 in
  let cs = new_cold () in
  let restarts = ref restarts and peak = ref nan and reads = ref 0 in
  (* the phases take turns, so each figure samples the whole run *)
  for cycle = 1 to cycles do
    let deadline = now () +. (0.5 *. float_of_int !seconds /. float_of_int cycles) in
    let _, n, _ =
      window ~sock:s.sock
        ~stop:(fun n ->
          (* the read-serving peak, after a fixed count of reads: the
             Qcache grows with the distinct queries asked, and every
             ASSERT below interns objects the store keeps after their
             RETRACT *)
          if cycle = 1 && n = peak_rounds then peak := Wire.vm_hwm_mb s.pid;
          now () >= deadline && (cycle > 1 || n > peak_rounds))
        ~reader ()
    in
    reads := !reads + n;
    (* two write rounds per read round, so [failed] stays a fixed share *)
    ignore
      (window ~sock:s.sock ~stop:(fun r -> r >= 2 * n)
         ~writer:(fun () -> Gen.company_write_round c wst ~fresh) ());
    (* every vehicle bought was sold again: the generated model answers *)
    counting := false;
    ignore
      (window ~sock:s.sock ~stop:(fun r -> r >= 1)
         ~reader:(fun () -> Gen.company_read_round c cst) ());
    counting := true;
    (* two more servers on the same file, from spawn to first answer *)
    for k = 0 to 1 do
      let probe = (Gen.w c.perm.((2 * cycle) + k) ^ " : employee", Gen.Ground true) in
      let s2, dt, r = start ~sock:"r.sock" ~program ~probe:("QUERY " ^ fst probe) () in
      check_probe probe r;
      Wire.kill s2;
      restarts := dt :: !restarts
    done;
    cold_step cs ~text:c.c_text ~set_tuples:(Gen.company_set_tuples c)
      ~point:(Gen.company_demand c) ~repeats:6
  done;
  server_stats := stats_of s.sock;
  Wire.kill s;
  plan :=
    Some
      {
        serve_text = c.c_text;
        reader = (fun st () -> Gen.company_read_round c st);
        reader_rounds = !reads;
        reads_per_write = 0;
        writer = (fun st fresh () -> Gen.company_write_round c st ~fresh);
        writer_rounds = 2 * !reads;
        cold_text = c.c_text;
        cold_point = Gen.company_demand c;
      };
  end_metrics ~setup_s ~restart_s:(median !restarts) ~peak:!peak cs

(* ------------------------------------------------------------------ *)
(* serve_write                                                         *)

let forest_input () =
  Gen.forest ~seed:!seed ~trees:forest_trees ~size:forest_size

let restart_check ~data ~program ~(folded : Gen.graph) =
  let s, dt, r =
    start ~data ~program ~probe:("QUERY " ^ edges_query) ()
  in
  check_probe (edges_query, Gen.Rows (edge_rows folded)) r;
  (s, dt)

let serve_write () =
  let fo = ref None in
  let data = file "data" in
  let gen _ =
    let f = forest_input () in
    let path = file "forest.plg" in
    write_file path f.g.g_text;
    rm_rf data;
    fo := Some f;
    let u = (f.trees - 1) * f.size in
    (path, Some data, (f.g.names.(u) ^ "[reach ->> {Y}]", Gen.Rows (Gen.reach_of f.g u)))
  in
  let s, setup_s, _ = setup_serve gen in
  let f = Option.get !fo in
  let program = file "forest.plg" in
  let rst = Gen.rng !seed 100 and wst = Gen.rng !seed 200 in
  let fresh = counter () and pending = ref [] in
  let reader () = Gen.forest_read_round f rst in
  let sent = ref 0 in
  let writer () =
    let ops = Gen.forest_write_round ~shortcut:true f wst ~fresh ~pending in
    sent := !sent + List.length ops;
    ops
  in
  let cs = new_cold () in
  let s = ref s and batches = ref [] and restarts = ref [] and peak = ref nan in
  let steps = ref 0 in
  (* the phases take turns, so each figure samples the whole run; each
     turn ends with a SIGKILL and a restart over the data directory *)
  for cycle = 1 to cycles do
    let before = Gen.fold_batches f (List.rev !batches) in
    let deadline =
      now () +. (0.8 *. float_of_int !seconds /. float_of_int cycles)
    in
    (* a server cuts a snapshot every 64 batches it logs, so a restart
       replays the batches since the last cut. Stopping with 28-36 of
       them (a round is 9) makes every restart replay about as much *)
    sent := 0;
    let stop n =
      (* the durable server's peak, after a fixed count of batches *)
      if cycle = 1 && n = peak_rounds / 4 then peak := Wire.vm_hwm_mb !s.pid;
      now () >= deadline && (cycle > 1 || n > peak_rounds / 4)
      && !sent mod 64 >= 28 && !sent mod 64 <= 36
    in
    let wacc, n, sub =
      window ~sock:!s.sock ~stop ~reader ~reads:forest_reads ~writer ~subscribe:true ()
    in
    batches := wacc.batches @ !batches;
    let folded = Gen.fold_batches f (List.rev !batches) in
    (match sub with
    | Some (baseline, deltas) ->
      if Gen.sorted baseline <> Gen.reach_of before 0 then
        mismatch "SUBSCRIBE baseline differs from the model";
      check_deltas ~baseline ~deltas ~expected:(List.rev wacc.deltas_expected)
        ~final:(Gen.reach_of folded 0)
    | None -> mismatch "no subscription result");
    steps := !steps + n;
    server_stats := stats_of !s.sock;
    Wire.kill !s;
    for i = 1 to 2 do
      Gc.compact ();
      let s2, dt = restart_check ~data ~program ~folded in
      restarts := dt :: !restarts;
      if i = 1 then Wire.kill s2 else s := s2
    done;
    cold_step cs ~text:f.g.g_text
      ~set_tuples:(Gen.edge_count f.g + Gen.reach_pairs f.g)
      ~point:(Gen.forest_demand f) ~repeats:6
  done;
  Wire.kill !s;
  plan :=
    Some
      {
        serve_text = f.g.g_text;
        reader = (fun st () -> Gen.forest_read_round f st);
        reader_rounds = !steps * forest_reads;
        reads_per_write = forest_reads;
        writer =
          (fun st fresh ->
            let pending = ref [] in
            fun () -> Gen.forest_write_round ~shortcut:true f st ~fresh ~pending);
        writer_rounds = !steps;
        cold_text = f.g.g_text;
        cold_point = Gen.forest_demand f;
      };
  end_metrics ~setup_s ~restart_s:(median !restarts) ~peak:!peak cs

(* ------------------------------------------------------------------ *)
(* Traced run: the same seeded streams, in-process, through the public
   calls the server makes, each call in a span                         *)

module Check = P.Check
let span = Trace.span

type replay_out = {
  fix_stats : P.Fixpoint.stats;
  fix_major_gcs : int;
  live_bytes_per_tuple : float;
  store_tuples : int;
  demand_reports : Program.demand_report list;
  regex_queries : int;
  product_states : int;
  retract_stats : Live.batch_stats list;
  strategies : Live.strategy list;
  snapshot_ms : float list;
  wal_bytes_per_batch : float;
  attach_words_per_tuple : float;
  replay_batches_per_s : float;
  snapshot_bytes_per_tuple : float;
}

(* Snapshot files, newest first. *)
let snapshots dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".snap")
  |> List.sort compare |> List.rev
  |> List.map (Filename.concat dir)

let newest_snapshot dir = match snapshots dir with f :: _ -> Some f | [] -> None

let file_size f = (Unix.stat f).Unix.st_size

let replay_reads = 1000

let replay (pl : plan) ~data =
  let ok_or_mismatch what = function
    | Ok _ -> ()
    | Error m -> mismatch "%s refused by the analysis gate: %s" what m
  in
  (* cold path: parse and materialise, then demand points *)
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let p = span "syntax.program" (fun () -> Program.of_string pl.cold_text) in
  let gcs0 = (Gc.quick_stat ()).Gc.major_collections in
  let fix_stats = span "engine.fixpoint" (fun () -> Program.run p) in
  let fix_major_gcs = (Gc.quick_stat ()).Gc.major_collections - gcs0 in
  Gc.compact ();
  let store_tuples = P.Store.size (Program.store p) in
  let live_bytes_per_tuple =
    float_of_int (((Gc.stat ()).Gc.live_words - live0) * (Sys.word_size / 8))
    /. float_of_int store_tuples
  in
  (* [p] must stay live through the compaction above *)
  ignore (Sys.opaque_identity p);
  let st = Gen.rng !seed 500 in
  let demand_reports =
    List.init demand_points (fun _ ->
        Trace.next_op ();
        let q, expect = pl.cold_point st in
        let p = Program.of_string pl.cold_text in
        let lits = Program.parse_query q in
        let ans, rep = span "engine.demand" (fun () -> Program.query_demand p lits) in
        if render_col p ans.Program.rows <> expect then mismatch "demand %s" q;
        rep)
  in
  (* serve path: load, attach, log; then the request streams *)
  rm_rf data;
  let p = span "syntax.program" (fun () -> Program.of_string pl.serve_text) in
  ignore (span "engine.fixpoint" (fun () -> Program.run p));
  let w0 = Trace.words () in
  let live = span "incremental.attach" (fun () -> Live.attach p) in
  let attach_words = Trace.words () -. w0 in
  let attach_words_per_tuple =
    attach_words /. float_of_int (P.Store.size (Program.store p))
  in
  let d, _ = span "durable.open_dir" (fun () -> Durable.open_dir data) in
  Live.set_commit_hook live
    (Some
       (fun ~retract ~epoch ~text ->
         span "durable.append" (fun () ->
             ignore (Durable.append d ~retract ~epoch text : int))));
  let regex_queries = ref 0 and product_states = ref 0 in
  let retract_stats = ref [] and strategies = ref [] and snapshot_ms = ref [] in
  let request (op : Gen.op) =
    Trace.next_op ();
    let line =
      match op with
      | Query { text; _ } -> "QUERY " ^ text
      | Why { fact; _ } -> "WHY " ^ fact
      | Assert { text; _ } -> "ASSERT " ^ text
      | Retract { text; _ } -> "RETRACT " ^ text
    in
    match span "server.parse_request" (fun () -> Protocol.parse_request line) with
    | Error _ -> mismatch "request did not parse: %s" line
    | Ok (Protocol.Query q) ->
      let lits = span "syntax.query_parse" (fun () -> Program.parse_query q) in
      let regex = match op with Query { regex; _ } -> regex | _ -> false in
      let ps0 = Atomic.get P.Solve.product_states_expanded in
      let ans =
        span (if regex then "semantics.regex" else "semantics.query") (fun () ->
            Program.query p lits)
      in
      if regex then begin
        incr regex_queries;
        product_states :=
          !product_states + Atomic.get P.Solve.product_states_expanded - ps0
      end;
      (match op with
      | Query { expect = Rows exp; text; _ } ->
        if render_col p ans.Program.rows <> exp then mismatch "replayed QUERY %s" text
      | Query { expect = Ground b; text; _ } ->
        if (ans.Program.rows <> []) <> b then mismatch "replayed QUERY %s" text
      | _ -> ())
    | Ok (Protocol.Why f) ->
      ignore (span "semantics.why" (fun () -> Program.why_string p f))
    | Ok (Protocol.Assert text | Protocol.Retract text as r) ->
      let retract = match r with Protocol.Retract _ -> true | _ -> false in
      ok_or_mismatch "batch" (span "analysis.gate" (fun () -> Check.gate text));
      let b =
        span (if retract then "incremental.retract" else "incremental.assert")
          (fun () ->
            (if retract then Live.retract_batch else Live.assert_batch) live text)
      in
      strategies := b.Live.strategy :: !strategies;
      if retract then retract_stats := b :: !retract_stats;
      let n0 = (Durable.stats d).Durable.snapshots_total in
      let t0 = now () in
      span "durable.maybe_snapshot" (fun () ->
          ignore
            (Durable.maybe_snapshot d ~every:64 ~epoch:b.Live.epoch
               ~source:(fun () -> Live.dump_source live)
              : bool));
      if (Durable.stats d).Durable.snapshots_total > n0 then
        snapshot_ms := ((now () -. t0) *. 1000.) :: !snapshot_ms
    | Ok _ -> ()
  in
  let reader = pl.reader (Gen.rng !seed 100) in
  let writer = pl.writer (Gen.rng !seed 200) (counter ()) in
  (* a prefix of at most [replay_reads] reader rounds, with the writer
     rounds in proportion, keeps a traced run well inside its time limit *)
  let part n = n * min replay_reads pl.reader_rounds / max 1 pl.reader_rounds in
  if pl.reads_per_write > 0 then
    for _ = 1 to part pl.writer_rounds do
      List.iter request (writer ());
      for _ = 1 to pl.reads_per_write do List.iter request (reader ()) done
    done
  else begin
    for _ = 1 to part pl.reader_rounds do List.iter request (reader ()) done;
    for _ = 1 to part pl.writer_rounds do List.iter request (writer ()) done
  end;
  if !snapshot_ms = [] then begin
    let t0 = now () in
    span "durable.snapshot_now" (fun () ->
        ignore (Durable.snapshot_now d ~epoch:0 ~source:(Live.dump_source live) : bool));
    snapshot_ms := [ (now () -. t0) *. 1000. ]
  end;
  let ds = Durable.stats d in
  let wal_bytes_per_batch =
    float_of_int ds.Durable.wal_bytes /. float_of_int (max 1 ds.Durable.wal_appends_total)
  in
  let snapshot_bytes_per_tuple =
    match newest_snapshot data with
    | Some f -> float_of_int (file_size f) /. float_of_int (P.Store.size (Program.store p))
    | None -> nan
  in
  Durable.close d;
  (* recover from the snapshot before the newest, so a suffix of at least
     64 records replays whatever the batch count *)
  (match snapshots data with newest :: _ :: _ -> Sys.remove newest | _ -> ());
  (* restart path: open the log, load the newest snapshot, attach, replay
     the suffix — what [serve --data] does before its first answer *)
  Gc.compact ();
  let d, rc = span "durable.open_dir" (fun () -> Durable.open_dir data) in
  let source =
    match rc.Durable.r_snapshot with Some (_, _, src) -> src | None -> pl.serve_text
  in
  ok_or_mismatch "snapshot" (span "analysis.gate_program" (fun () -> Check.gate source));
  let p2 = span "syntax.program" (fun () -> Program.of_string source) in
  ignore (span "engine.fixpoint" (fun () -> Program.run p2));
  let live2 = span "incremental.attach" (fun () -> Live.attach p2) in
  let t0 = now () in
  List.iter
    (fun (r : Durable.record) ->
      ok_or_mismatch "record" (span "analysis.gate" (fun () -> Check.gate r.text));
      ignore
        (span "incremental.replay" (fun () ->
             (if r.retract then Live.retract_batch else Live.assert_batch) live2 r.text)))
    rc.Durable.r_tail;
  let replay_batches_per_s =
    float_of_int (List.length rc.Durable.r_tail) /. max 1e-9 (now () -. t0)
  in
  if Live.dump_source live2 <> Live.dump_source live then
    mismatch "recovered model differs from the replayed one";
  Durable.close d;
  {
    fix_stats; fix_major_gcs; live_bytes_per_tuple; store_tuples; demand_reports;
    regex_queries = !regex_queries; product_states = !product_states;
    retract_stats = !retract_stats; strategies = !strategies;
    snapshot_ms = !snapshot_ms; wal_bytes_per_batch; attach_words_per_tuple;
    replay_batches_per_s; snapshot_bytes_per_tuple;
  }

let per_layer () =
  let pl = Option.get !plan in
  let data = file "replay" in
  let wire_p50_ms = latency ~k:200 0.5 q_samples in
  List.iter clear [ q_samples; why_samples; assert_samples; retract_samples; mutation_samples ];
  (* once without spans for the overhead baseline, once traced *)
  Trace.enabled := false;
  Gc.compact ();
  let t0 = now () in
  ignore (replay pl ~data);
  let plain_s = now () -. t0 in
  Trace.reset ();
  Trace.enabled := true;
  Gc.compact ();
  let t0 = now () in
  let r = replay pl ~data in
  let traced_s = now () -. t0 in
  Trace.enabled := false;
  let selfs = Trace.self_times () in
  let self_med name =
    match Hashtbl.find_opt selfs name with Some l -> median l | None -> nan
  in
  let us name = self_med name *. 1e6 in
  let mean f l = List.fold_left (fun a x -> a +. f x) 0. l /. float_of_int (max 1 (List.length l)) in
  let count s = List.length (List.filter (( = ) s) r.strategies) |> float_of_int in
  let st = !server_stats in
  let stat k = Wire.stat st k in
  let fs = r.fix_stats in
  metric "server.qcache_hit_ratio" "ratio"
    (stat "cache_hits" /. max 1. (stat "cache_hits" +. stat "cache_misses"));
  metric "server.side_p50_us" "us" (stat "latency_p50_interp_us");
  metric "server.wire_overhead_us" "us"
    ((wire_p50_ms *. 1000.) -. stat "latency_p50_interp_us");
  metric "server.deltas_pushed" "count" (stat "deltas_pushed");
  metric "syntax.query_parse_us" "us" (us "syntax.query_parse");
  metric "syntax.program_parse_s" "s" (self_med "syntax.program");
  metric "analysis.gate_us" "us" (us "analysis.gate");
  metric "semantics.query_eval_us" "us" (us "semantics.query");
  metric "semantics.regex_eval_us" "us" (us "semantics.regex");
  metric "semantics.product_states_per_regex_query" "count"
    (float_of_int r.product_states /. float_of_int (max 1 r.regex_queries));
  metric "semantics.why_us" "us" (us "semantics.why");
  (* the first fixpoint span is the cold materialisation *)
  let fix_span =
    List.find (fun (s : Trace.span) -> s.name = "engine.fixpoint") (List.rev !Trace.spans)
  in
  metric "engine.fixpoint_s" "s" (fix_span.t1 -. fix_span.t0);
  metric "engine.insertions" "count" (float_of_int fs.P.Fixpoint.insertions);
  metric "engine.rule_evaluations" "count" (float_of_int fs.P.Fixpoint.rule_evaluations);
  metric "engine.firings_per_insertion" "ratio"
    (float_of_int fs.P.Fixpoint.firings /. float_of_int (max 1 fs.P.Fixpoint.insertions));
  metric "engine.alloc_words_per_tuple" "words"
    (fix_span.words /. float_of_int (max 1 fs.P.Fixpoint.insertions));
  metric "engine.major_gcs" "count" (float_of_int r.fix_major_gcs);
  metric "engine.demand_point_us" "us" (us "engine.demand");
  metric "engine.demand_insertions_per_point" "count"
    (mean (fun (d : Program.demand_report) -> float_of_int d.d_stats.P.Fixpoint.insertions) r.demand_reports);
  metric "engine.demand_magic_facts_per_point" "count"
    (mean (fun (d : Program.demand_report) -> float_of_int d.d_magic_facts) r.demand_reports);
  metric "oodb.live_bytes_per_tuple" "B" r.live_bytes_per_tuple;
  metric "oodb.store_tuples" "count" (float_of_int r.store_tuples);
  metric "incremental.assert_us" "us" (us "incremental.assert");
  metric "incremental.retract_us" "us" (us "incremental.retract");
  metric "incremental.rederive_insertions_per_retract" "count"
    (mean
       (fun (b : Live.batch_stats) ->
         match b.fixpoint with Some f -> float_of_int f.P.Fixpoint.insertions | None -> 0.)
       r.retract_stats);
  metric "incremental.net_removed_per_retract" "count"
    (mean (fun (b : Live.batch_stats) -> float_of_int (List.length b.removed)) r.retract_stats);
  metric "incremental.counting_batches" "count" (count Live.Counting);
  metric "incremental.dred_batches" "count" (count Live.Dred);
  metric "incremental.recompute_batches" "count" (count Live.Recompute);
  metric "incremental.attach_s" "s" (self_med "incremental.attach");
  metric "incremental.attach_words_per_tuple" "words" r.attach_words_per_tuple;
  metric "incremental.replay_batches_per_s" "1/s" r.replay_batches_per_s;
  metric "durable.append_us" "us" (us "durable.append");
  metric "durable.wal_bytes_per_batch" "B" r.wal_bytes_per_batch;
  metric "durable.snapshot_ms" "ms" (median r.snapshot_ms);
  metric "durable.open_dir_ms" "ms" (self_med "durable.open_dir" *. 1000.);
  metric "durable.snapshot_bytes_per_tuple" "B" r.snapshot_bytes_per_tuple;
  metric "trace.overhead_pct" "%" ((traced_s -. plain_s) /. plain_s *. 100.);
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  Trace.write
    (Printf.sprintf ".bench_out/spans_%s_%d.tsv" !workload !seed);
  Printf.eprintf
    "plbench: traced replay %.3f s, untraced replay %.3f s; wire query p50 %.4f ms vs traced parse+eval %.4f ms\n%!"
    traced_s plain_s wire_p50_ms
    ((us "server.parse_request" +. us "syntax.query_parse" +. us "semantics.query") /. 1000.)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let () =
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf "plbench: refusing to run with %s set: it changes the engine\n" v;
        exit 2
      end)
    [ "PATHLOG_JOBS"; "PATHLOG_FAULTS" ];
  (* a SIGTERM still runs [at_exit], which kills the server children *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  if !exe = "" || !dir = "" then (prerr_endline "plbench: --exe and --dir are required"; exit 2);
  run_dir := !dir;
  (try Sys.mkdir !dir 0o755 with Sys_error _ -> ());
  let run =
    match !workload with
    | "serve_read" -> serve_read
    | "serve_write" -> serve_write
    | w -> (Printf.eprintf "plbench: unknown workload %S\n" w; exit 2)
  in
  match
    run ();
    if !trace = 1 then begin
      metrics := [];
      per_layer ()
    end
  with
  | () -> print_result ()
  | exception e ->
    Printf.eprintf "plbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
    exit 1
