module Sparse = Tessera_svm.Sparse
module Problem = Tessera_svm.Problem

type instance = { label : int; x : Sparse.t }

let instance_to_line i =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (string_of_int i.label);
  Sparse.iter
    (fun idx v ->
      (* 1-based component indices in the file format *)
      Buffer.add_string buf (Printf.sprintf " %d:%.17g" (idx + 1) v))
    i.x;
  Buffer.contents buf

let line_to_instance line =
  match
    String.split_on_char ' ' (String.trim line) |> List.filter (fun t -> t <> "")
  with
  | [] -> failwith "Liblinear_format: empty line"
  | label :: feats ->
      let label =
        try int_of_string label
        with _ -> failwith ("Liblinear_format: bad label " ^ label)
      in
      let pairs =
        List.map
          (fun tok ->
            match String.index_opt tok ':' with
            | None -> failwith ("Liblinear_format: bad component " ^ tok)
            | Some i ->
                let idx = int_of_string (String.sub tok 0 i) in
                let v =
                  float_of_string (String.sub tok (i + 1) (String.length tok - i - 1))
                in
                if idx < 1 then failwith "Liblinear_format: index must be >= 1";
                (idx - 1, v))
          feats
      in
      { label; x = Sparse.of_list pairs }

let write instances =
  String.concat "" (List.map (fun i -> instance_to_line i ^ "\n") instances)

let parse s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map line_to_instance

let save instances path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write instances))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let to_problem instances =
  let x = Array.of_list (List.map (fun i -> i.x) instances) in
  let y = Array.of_list (List.map (fun i -> i.label) instances) in
  Problem.make x y
