(* Spans recorded by the benchmark around its calls into each layer's
   public functions: name, start, end, parent, operation id and the words
   allocated inside. Kept in memory; written out when the run ends. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  t0 : float;
  mutable t1 : float;
  mutable child_s : float;  (** time covered by direct children *)
  w0 : float;
  mutable words : float;
}

let enabled = ref false
let spans : span list ref = ref []
let count = ref 0
let stack : (int * span) list ref = ref []
let op_id = ref 0

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with (i, _) :: _ -> i | [] -> -1 in
    let idx = !count in
    let s =
      { id = idx; name; op = !op_id; parent; t0 = Unix.gettimeofday (); t1 = 0.;
        child_s = 0.; w0 = words (); words = 0. }
    in
    incr count;
    stack := (idx, s) :: !stack;
    let finish () =
      s.t1 <- Unix.gettimeofday ();
      s.words <- words () -. s.w0;
      stack := List.tl !stack;
      (match !stack with
      | (_, p) :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0)
      | [] -> ());
      spans := s :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let next_op () = incr op_id

(* Per span name, the self time of every call (for medians). *)
let self_times () =
  let t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find t s.name with Not_found -> [] in
      Hashtbl.replace t s.name ((s.t1 -. s.t0 -. s.child_s) :: l))
    !spans;
  t

(* One line per span, in start order: id, op, name, parent, start, end,
   words. *)
let write path =
  let oc = open_out path in
  let l = List.sort (fun a b -> compare a.id b.id) !spans in
  let base = match l with s :: _ -> s.t0 | [] -> 0. in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%.9f\t%.9f\t%.0f\n" s.id s.op
        s.name s.parent (s.t0 -. base) (s.t1 -. base) s.words)
    l;
  close_out oc

let reset () =
  spans := [];
  count := 0;
  stack := [];
  op_id := 0
