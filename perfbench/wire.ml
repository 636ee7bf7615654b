(* The server under test as a child process, and the client side of the
   wire: spawn, wait for the first answer, time requests, kill. *)

module Client = Pathlog.Client
module Protocol = Pathlog.Protocol

let now = Unix.gettimeofday

type server = { pid : int; sock : string }

(* Children still alive; killed at exit whatever way the run ends. *)
let live : server list ref = ref []

(* [pathlog serve] on a unix socket, pinned to the sequential engine and
   at most [nproc] worker threads. Its output goes to [log]. *)
let spawn ~exe ~program ~sock ?data ?faults ~log () =
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ exe; "serve"; program; "--unix"; sock; "--jobs"; "1"; "--workers";
      string_of_int (min 2 (Domain.recommended_domain_count ())) ]
    @ (match data with Some d -> [ "--data"; d ] | None -> [])
    @ match faults with Some f -> [ "--faults"; f ] | None -> []
  in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin out out
  in
  Unix.close out;
  let s = { pid; sock } in
  live := s :: !live;
  s

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Connect and send [probe] until a non-BUSY reply arrives; returns the
   connection and the reply. Polls every 2 ms. *)
let await_ready ?(timeout = 120.) s probe =
  let t0 = now () in
  let rec go () =
    if now () -. t0 > timeout then failwith "server not ready in time";
    if exited s then failwith "server exited during start-up";
    match Client.connect (Pathlog.Server.Unix_path s.sock) with
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.002;
      go ()
    | c -> poll c
  and poll c =
    match Client.request c probe with
    | Ok (Protocol.Busy _) ->
      Unix.sleepf 0.002;
      poll c
    | Ok r -> (c, r)
    | Error _ ->
      Client.close c;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Peak resident set of a live process, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* SIGKILL, never a graceful drain: the server's accept loop polls every
   0.2 s and a drain would add that to whatever timing surrounds it. *)
let kill s =
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  try Sys.remove s.sock with Sys_error _ -> ()

(* The median of the server's latency histogram ([latency_le <bound>us
   <count>] lines, per bucket), interpolated inside its bucket: the
   bucket bound alone is too coarse to subtract from a client p50. *)
let histogram_p50_us lines =
  let buckets =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "latency_le"; b; n ] when b <> "inf" ->
          Scanf.sscanf b "%dus" (fun b -> Some (float_of_int b, float_of_string n))
        | _ -> None)
      lines
    |> List.sort compare
  in
  let total = List.fold_left (fun a (_, n) -> a +. n) 0. buckets in
  let rec go lo cum = function
    | [] -> nan
    | (hi, n) :: rest ->
      if cum +. n >= total /. 2. then lo +. ((hi -. lo) *. ((total /. 2.) -. cum) /. n)
      else go hi (cum +. n) rest
  in
  go 0. 0. buckets

(* [STATS] as a key -> value table (first token key, last token value),
   plus [latency_p50_interp_us]. *)
let stats c =
  match Client.stats c with
  | Error e -> failwith ("STATS failed: " ^ e)
  | Ok lines ->
    ("latency_p50_interp_us", histogram_p50_us lines)
    :: List.filter_map
         (fun l ->
           match String.split_on_char ' ' l with
           | [ k; v ] -> Some (k, float_of_string_opt v |> Option.value ~default:nan)
           | _ -> None)
         lines

let stat tbl k = try List.assoc k tbl with Not_found -> nan

let () = at_exit (fun () -> List.iter kill !live)
