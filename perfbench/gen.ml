(* Seeded inputs for the benchmark, and the answers the benchmark expects,
   computed from the generated records with plain graph code — never by
   PathLog. The program under test only ever sees the rendered text. *)

let rng seed salt = Random.State.make [| seed; salt; 0x5eed |]

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

type expect =
  | Rows of string list  (** sorted payload rows after the header line *)
  | Ground of bool  (** a query without variables: yes / no *)

type op =
  | Query of { text : string; expect : expect; regex : bool }
  | Why of { fact : string; closure_only : bool }
      (** [closure_only]: the fact holds only through a [::] step, which
          provenance cannot prove (the known fault) *)
  | Assert of { text : string; delta : string option }
  | Retract of { text : string; delta : string option }
      (** [delta]: the row the batch adds to / removes from the standing
          query, when it touches it *)

let sorted l = List.sort_uniq compare l

(* Breadth-first closure over an adjacency function; [reflexive] keeps the
   start node. *)
let bfs ~succ ~reflexive start =
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  let out = ref [] in
  if reflexive then begin
    Hashtbl.replace seen start ();
    out := [ start ]
  end;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.replace seen v ();
          out := v :: !out;
          Queue.add v q
        end)
      (succ u)
  done;
  !out

(* Zipf(1.0) ranks over [0, n): a few receivers are asked often (the
   query cache serves them), most are rare. *)
let zipf_table n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw cdf st =
  let u = Random.State.float st 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Company domain plus org graph (the paper's running example, scaled) *)

let colors = [| "red"; "blue"; "green"; "black"; "white"; "silver" |]

type company = {
  n : int;
  boss : int array;  (** -1 for the root *)
  mentor : int array;  (** -1 when none *)
  is_mgr : bool array;
  age : int array;
  city : int array;
  vehicles : int list array;
  v_auto : bool array;
  v_cyl : int array;
  v_color : int array;
  c_text : string;
  zipf : float array;
  perm : int array;
}

(* The paper's own objects stay fixed, whatever the seed: the WHY
   closure fault is asked about them ([m1 : employee], [a1 : vehicle]). *)
let paper_core =
  {|automobile :: vehicle.
manager :: employee.
e1 : employee[age -> 30; city -> newYork; boss -> m1].
e2 : employee[age -> 45; city -> boston; boss -> m1].
m1 : manager[age -> 50; city -> newYork].
e1[vehicles ->> {a1, v1}].
m1[vehicles ->> {a2}].
a1 : automobile[cylinders -> 4; color -> red; producedBy -> acme].
a2 : automobile[cylinders -> 4; color -> red; producedBy -> acme].
v1 : vehicle[color -> blue].
acme : company[city -> detroit; president -> m1].
X[colors ->> {C}] <- X..vehicles.color[C].
|}

let company ~seed ~n =
  let st = rng seed 1 in
  let boss =
    Array.init n (fun i ->
        if i = 0 then -1
        else
          let lo = i / 3 and hi = max (i / 3 + 1) ((i + 1) / 2) in
          lo + Random.State.int st (hi - lo))
  in
  (* how many mentors and vehicles there are does not depend on the seed,
     only who and which: the program has the same statement count on
     every seed, and the analysis gate's cost grows with that count *)
  let mentor =
    Array.init n (fun i ->
        if i >= 8 && i mod 10 < 3 then Random.State.int st (i / 4) else -1)
  in
  let is_mgr = Array.make n false in
  Array.iter (fun b -> if b >= 0 then is_mgr.(b) <- true) boss;
  let age = Array.init n (fun _ -> 20 + Random.State.int st 45) in
  let city = Array.init n (fun _ -> Random.State.int st 40) in
  let nv = ref 0 in
  let vehicles =
    Array.init n (fun i ->
        List.init (i mod 3) (fun _ ->
            let v = !nv in
            incr nv;
            v))
  in
  let nv = !nv in
  let v_auto = Array.init nv (fun _ -> Random.State.int st 10 < 7) in
  let v_cyl = Array.init nv (fun _ -> [| 4; 6; 8 |].(Random.State.int st 3)) in
  let v_color =
    Array.init nv (fun _ -> Random.State.int st (Array.length colors))
  in
  let b = Buffer.create (n * 120) in
  Buffer.add_string b paper_core;
  for i = 0 to n - 1 do
    Printf.bprintf b "w%d : %s[age -> %d; city -> city%d%s].\n" i
      (if is_mgr.(i) then "manager" else "employee")
      age.(i) city.(i)
      (if boss.(i) >= 0 then Printf.sprintf "; boss -> w%d" boss.(i) else "");
    if mentor.(i) >= 0 then Printf.bprintf b "w%d[mentor -> w%d].\n" i mentor.(i);
    if vehicles.(i) <> [] then
      Printf.bprintf b "w%d[vehicles ->> {%s}].\n" i
        (String.concat ", "
           (List.map (fun v -> Printf.sprintf "car%d" v) vehicles.(i)))
  done;
  for v = 0 to nv - 1 do
    if v_auto.(v) then
      Printf.bprintf b
        "car%d : automobile[cylinders -> %d; color -> %s; producedBy -> co%d].\n"
        v v_cyl.(v) colors.(v_color.(v)) (v mod 20)
    else Printf.bprintf b "car%d : vehicle[color -> %s].\n" v colors.(v_color.(v))
  done;
  for c = 0 to 19 do
    Printf.bprintf b "co%d : company[city -> city%d; president -> w%d].\n" c
      (c * 2) (c mod 7)
  done;
  {
    n;
    boss;
    mentor;
    is_mgr;
    age;
    city;
    vehicles;
    v_auto;
    v_cyl;
    v_color;
    c_text = Buffer.contents b;
    zipf = zipf_table n;
    perm = permutation st n;
  }

let w i = Printf.sprintf "w%d" i

let colors_of c k =
  sorted (List.map (fun v -> colors.(c.v_color.(v))) c.vehicles.(k))

(* Derived [colors] tuples and [vehicles] tuples of the whole model: the
   set-valued part of the closure, for the size check after a full
   materialisation. The paper core contributes 3 vehicles and 3 colors
   tuples (e1: red, blue; m1: red). *)
let company_set_tuples c =
  let t = ref 6 in
  for k = 0 to c.n - 1 do
    t := !t + List.length c.vehicles.(k) + List.length (colors_of c k)
  done;
  !t

let receiver c st = c.perm.(zipf_draw c.zipf st)

let with_boss c st =
  let k = receiver c st in
  if k = 0 then 1 else k

(* One read round of one connection: 68 requests in a fixed mix, two of
   them WHY on closure-only members of the paper core (the known fault). *)
let company_read_round c st =
  let q ?(regex = false) text expect = Query { text; expect; regex } in
  let ops = ref [] in
  let add o = ops := o :: !ops in
  for _ = 1 to 8 do
    let k = receiver c st in
    add
      (q
         (Printf.sprintf "%s..vehicles : automobile[cylinders -> 4].color[Z]"
            (w k))
         (Rows
            (sorted
               (List.filter_map
                  (fun v ->
                    if c.v_auto.(v) && c.v_cyl.(v) = 4 then
                      Some colors.(c.v_color.(v))
                    else None)
                  c.vehicles.(k)))));
    let k = with_boss c st in
    add
      (q (Printf.sprintf "%s.boss..vehicles.color[Z]" (w k))
         (Rows (colors_of c c.boss.(k))));
    let k = with_boss c st in
    let b = c.boss.(k) in
    add
      (q (Printf.sprintf "%s.boss[city -> C; age -> A]" (w k))
         (Rows [ Printf.sprintf "city%d\t%d" c.city.(b) c.age.(b) ]))
  done;
  let up k = if c.boss.(k) >= 0 then [ c.boss.(k) ] else [] in
  let up2 k = up k @ if c.mentor.(k) >= 0 then [ c.mentor.(k) ] else [] in
  for _ = 1 to 8 do
    let k = receiver c st in
    add
      (q ~regex:true (Printf.sprintf "%s.boss+[Y]" (w k))
         (Rows (sorted (List.map w (bfs ~succ:up ~reflexive:false k)))));
    let k = receiver c st in
    add
      (q ~regex:true (Printf.sprintf "%s.(boss|mentor)*[Y]" (w k))
         (Rows (sorted (List.map w (bfs ~succ:up2 ~reflexive:true k)))))
  done;
  for _ = 1 to 6 do
    let k = receiver c st in
    add (q (Printf.sprintf "%s : employee" (w k)) (Ground true));
    let k = receiver c st in
    add (q (Printf.sprintf "%s : manager" (w k)) (Ground c.is_mgr.(k)));
    let k = with_boss c st in
    let j = if Random.State.bool st then c.boss.(k) else receiver c st in
    add
      (q (Printf.sprintf "%s[boss -> %s]" (w k) (w j)) (Ground (c.boss.(k) = j)))
  done;
  for _ = 1 to 4 do
    let k = with_boss c st in
    add
      (Why
         { fact = Printf.sprintf "%s[boss -> %s]" (w k) (w c.boss.(k));
           closure_only = false });
    let k =
      let rec pick () =
        let k = receiver c st in
        if c.vehicles.(k) = [] then pick () else k
      in
      pick ()
    in
    let col = List.hd (colors_of c k) in
    add
      (Why
         { fact = Printf.sprintf "%s[colors ->> {%s}]" (w k) col;
           closure_only = false })
  done;
  add (Why { fact = "m1 : employee"; closure_only = true });
  add (Why { fact = "a1 : vehicle"; closure_only = true });
  (* interleave the kinds: a fixed shuffle of the round *)
  let a = Array.of_list (List.rev !ops) in
  let p = permutation st (Array.length a) in
  Array.to_list (Array.map (fun i -> a.(i)) p)

let company_read_round_size = 68

(* One write round: two vehicles bought, then sold again, so the model
   the readers check is the generated one between rounds. *)
let company_write_round c st ~fresh =
  let batch () =
    let k = receiver c st in
    let v = fresh () in
    (* one fact per statement: RETRACT cannot resolve a molecule
       [o : c[m -> v; ...]] that ASSERT accepted *)
    Printf.sprintf
      "%s[vehicles ->> {nv%d}]. nv%d : automobile. nv%d[cylinders -> %d]. \
       nv%d[color -> %s]."
      (w k) v v v
      [| 4; 6; 8 |].(Random.State.int st 3)
      v
      colors.(Random.State.int st (Array.length colors))
  in
  let b1 = batch () and b2 = batch () in
  [
    Assert { text = b1; delta = None };
    Assert { text = b2; delta = None };
    Retract { text = b1; delta = None };
    Retract { text = b2; delta = None };
  ]


(* Demand-driven point queries on the company model: the derived
   [colors] set of one employee. *)
let company_demand c st =
  let k =
    let rec pick () =
      let k = receiver c st in
      if c.vehicles.(k) = [] then pick () else k
    in
    pick ()
  in
  (Printf.sprintf "%s[colors ->> {C}]" (w k), colors_of c k)

(* ------------------------------------------------------------------ *)
(* Reach forests                                                       *)

let reach_rules =
  "X[reach ->> {Y}] <- X[to ->> {Y}].\n\
   X[reach ->> {Y}] <- X[to ->> {Z}], Z[reach ->> {Y}].\n"

(* A graph of named nodes with [to] edges, and its program text. *)
type graph = {
  names : string array;
  succ : int list array;
  g_text : string;
}

let graph_text names succ =
  let b = Buffer.create (Array.length names * 24) in
  Array.iteri
    (fun u vs ->
      if vs <> [] then
        Printf.bprintf b "%s[to ->> {%s}].\n" names.(u)
          (String.concat ", " (List.map (fun v -> names.(v)) vs)))
    succ;
  Buffer.add_string b reach_rules;
  Buffer.contents b

let reach_pairs g =
  let n = Array.length g.names in
  let t = ref 0 in
  for u = 0 to n - 1 do
    t := !t + List.length (bfs ~succ:(fun v -> g.succ.(v)) ~reflexive:false u)
  done;
  !t

let edge_count g = Array.fold_left (fun a l -> a + List.length l) 0 g.succ

(* A forest of [trees] trees of [size] nodes: node i hangs under one of
   the three nodes before it, so depth grows with i and the deep end of a
   tree has dozens of ancestors. *)
type forest = { g : graph; trees : int; size : int }

let node t i = Printf.sprintf "n%d_%d" t i

let forest ~seed ~trees ~size =
  let st = rng seed 2 in
  let n = trees * size in
  let names = Array.init n (fun x -> node (x / size) (x mod size)) in
  let succ = Array.make n [] in
  for t = 0 to trees - 1 do
    for i = 1 to size - 1 do
      let p = max 0 (i - 1 - Random.State.int st 3) in
      let u = (t * size) + p and v = (t * size) + i in
      succ.(u) <- v :: succ.(u)
    done
  done;
  let succ = Array.map List.rev succ in
  { g = { names; succ; g_text = graph_text names succ }; trees; size }

let reach_of g u =
  sorted
    (List.map (fun v -> g.names.(v))
       (bfs ~succ:(fun v -> g.succ.(v)) ~reflexive:false u))

(* Trees [0, trees/2) are written to; the rest are only read, so reads
   under writes have answers fixed in advance. Tree 0 carries the
   standing query. *)
let hot_tree f st = if Random.State.int st 4 = 0 then 0 else Random.State.int st (f.trees / 2)

let static_node f st =
  let t = (f.trees / 2) + Random.State.int st (f.trees - (f.trees / 2)) in
  (t * f.size) + Random.State.int st f.size

let subscription = "n0_0[reach ->> {Y}]"

(* One writer round: four ASSERTs, then the RETRACTs of the previous
   round's. Two hang a fresh leaf near a root (a delta of a few tuples),
   one hangs it deep in a tree (dozens). With [shortcut], the fourth also
   hangs one deep and adds a second edge to it from a shallower node;
   that edge is retracted on its own first, and since its [reach] facts
   keep support through the deep edge, the retract has to re-derive
   them. Without it the fourth is a near-root leaf too. [pending]
   carries the retracts over to the next round. *)
let forest_write_round ~shortcut f st ~fresh ~pending =
  let edge u x = Printf.sprintf "%s[to ->> {%s}]." u x in
  let deep () = f.size - 1 - Random.State.int st 5 in
  let batches =
    List.init 4 (fun j ->
        let t = hot_tree f st in
        let x = Printf.sprintf "x%d" (fresh ()) in
        let d = if t = 0 then Some x else None in
        if j = 3 && shortcut then
          let i = deep () in
          let a = i - 2 - Random.State.int st 10 in
          let e1 = edge (node t i) x and e2 = edge (node t a) x in
          ((e1 ^ " " ^ e2, d), [ (e2, None); (e1, d) ])
        else
          let e = edge (node t (if j = 1 then deep () else Random.State.int st 3)) x in
          ((e, d), [ (e, d) ]))
  in
  let ops =
    List.map (fun ((text, delta), _) -> Assert { text; delta }) batches
    @ List.map (fun (text, delta) -> Retract { text; delta }) !pending
  in
  pending := List.concat_map snd batches;
  ops

(* One reader round: 16 requests over the static trees. *)
let forest_read_round f st =
  let g = f.g in
  let ops = ref [] in
  let add o = ops := o :: !ops in
  for _ = 1 to 6 do
    let u = static_node f st in
    add
      (Query
         { text = Printf.sprintf "%s[reach ->> {Y}]" g.names.(u);
           expect = Rows (reach_of g u); regex = false });
    let u = static_node f st in
    let r = reach_of g u in
    let v =
      if r <> [] && Random.State.bool st then
        List.nth r (Random.State.int st (List.length r))
      else g.names.(static_node f st)
    in
    add
      (Query
         { text = Printf.sprintf "%s[reach ->> {%s}]" g.names.(u) v;
           expect = Ground (List.mem v r); regex = false })
  done;
  for _ = 1 to 2 do
    (* the regex closure over set-valued [to] steps must agree with the
       materialised [reach] rule *)
    let u = static_node f st in
    add
      (Query
         { text = Printf.sprintf "%s..to+[Y]" g.names.(u);
           expect = Rows (reach_of g u); regex = true })
  done;
  for _ = 1 to 2 do
    (* a grandchild where there is one, else a child: proofs of one size *)
    let rec pick () =
      let u = static_node f st in
      match g.succ.(u) with
      | [] -> pick ()
      | cs -> (
        let c = List.nth cs (Random.State.int st (List.length cs)) in
        match g.succ.(c) with
        | [] -> g.names.(c)
        | gs -> g.names.(List.nth gs (Random.State.int st (List.length gs))))
        |> fun v -> (u, v)
    in
    let u, v = pick () in
    add
      (Why
         { fact = Printf.sprintf "%s[reach ->> {%s}]" g.names.(u) v;
           closure_only = false })
  done;
  List.rev !ops

let forest_read_round_size = 16

(* Fold acknowledged batches of [to] edges into the graph: the model a
   restarted server must hold. *)
let fold_batches (f : forest) batches =
  let index = Hashtbl.create 1024 in
  Array.iteri (fun i nm -> Hashtbl.replace index nm i) f.g.names;
  let names = ref (Array.to_list f.g.names |> List.rev) in
  let n = ref (Array.length f.g.names) in
  let extra = Hashtbl.create 64 in
  let id nm =
    match Hashtbl.find_opt index nm with
    | Some i -> i
    | None ->
      let i = !n in
      incr n;
      Hashtbl.replace index nm i;
      names := nm :: !names;
      i
  in
  List.iter
    (fun (retract, text) ->
      String.split_on_char '.' text
      |> List.map String.trim
      |> List.filter (( <> ) "")
      |> List.iter (fun stmt ->
             Scanf.sscanf stmt "%[^[][to ->> {%[^}]}]" (fun u v ->
                 let e = (id u, id v) in
                 if retract then Hashtbl.remove extra e
                 else Hashtbl.replace extra e ())))
    batches;
  let names = Array.of_list (List.rev !names) in
  let succ = Array.make (Array.length names) [] in
  Array.iteri (fun u l -> succ.(u) <- l) f.g.succ;
  Hashtbl.iter (fun (u, v) () -> succ.(u) <- succ.(u) @ [ v ]) extra;
  { names; succ; g_text = "" }

(* Receivers in the last 40 nodes of a static tree: subtrees of tens of
   nodes, so no single point dominates the median. *)
let forest_demand (f : forest) st =
  let t = (f.trees / 2) + Random.State.int st (f.trees - (f.trees / 2)) in
  let u = (t * f.size) + f.size - 1 - Random.State.int st 40 in
  (Printf.sprintf "%s[reach ->> {Y}]" f.g.names.(u), reach_of f.g u)
