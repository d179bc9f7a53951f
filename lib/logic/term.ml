(* Terms: variables and constants.

   Variables carry a user-facing name and a globally unique id; resource
   transactions are freshened on admission so pending transactions never
   share variables accidentally (the proof of Lemma 3.4 assumes disjoint
   variable sets). *)

type var = {
  vname : string;
  vid : int;
}

type t =
  | V of var
  | C of Relational.Value.t

(* Atomic so ids stay unique when independent engines mint variables on
   different actor domains (per-flight workloads). *)
let counter = Atomic.make 0

let fresh_var name = { vname = name; vid = 1 + Atomic.fetch_and_add counter 1 }

let var v = V v
let const c = C c
let int n = C (Relational.Value.Int n)
let str s = C (Relational.Value.Str s)
let bool b = C (Relational.Value.Bool b)

let is_var = function
  | V _ -> true
  | C _ -> false

let compare_var a b = Int.compare a.vid b.vid
let equal_var a b = a.vid = b.vid

let compare a b =
  match a, b with
  | V x, V y -> compare_var x y
  | C x, C y -> Relational.Value.compare x y
  | V _, C _ -> -1
  | C _, V _ -> 1

let equal a b = compare a b = 0

let pp_var fmt v = Format.fprintf fmt "%s_%d" v.vname v.vid

let pp fmt = function
  | V v -> pp_var fmt v
  | C c -> Relational.Value.pp fmt c

let to_string t = Format.asprintf "%a" pp t

module Var_map = Map.Make (struct
  type t = var

  let compare = compare_var
end)

module Var_set = Set.Make (struct
  type t = var

  let compare = compare_var
end)

let to_sexp = function
  | V v ->
    Relational.Sexp.List
      [ Relational.Sexp.Atom "v"; Relational.Sexp.Atom v.vname;
        Relational.Sexp.Atom (string_of_int v.vid) ]
  | C c -> Relational.Sexp.List [ Relational.Sexp.Atom "c"; Relational.Value.to_sexp c ]

let of_sexp = function
  | Relational.Sexp.List
      [ Relational.Sexp.Atom "v"; Relational.Sexp.Atom name; Relational.Sexp.Atom id ] ->
    (match int_of_string_opt id with
     | Some vid ->
       (* Keep the fresh-variable counter ahead of every deserialized id so
          recovery never re-mints an id that is still live in a pending
          transaction. *)
       let rec bump () =
         let cur = Atomic.get counter in
         if vid > cur && not (Atomic.compare_and_set counter cur vid) then bump ()
       in
       bump ();
       V { vname = name; vid }
     | None -> raise (Relational.Sexp.Parse_error ("bad var id: " ^ id)))
  | Relational.Sexp.List [ Relational.Sexp.Atom "c"; v ] -> C (Relational.Value.of_sexp v)
  | s -> raise (Relational.Sexp.Parse_error ("bad term sexp: " ^ Relational.Sexp.to_string s))
